// Runs a test body at every x86-64 kernel level this host can run (see
// mog/kernels/isa.hpp).
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "mog/kernels/isa.hpp"

namespace mog::test {

/// Calls `body(isa)`, under a trace naming the level, for each level this
/// binary contains and this CPU runs. If any level was left out, the test
/// is then marked skipped, and the skip names each such level and why.
template <typename Body>
void for_each_runnable_level(Body&& body) {
  std::string missing;
  for (const kernels::IsaLevel isa : kernels::kAllIsaLevels) {
    if (!kernels::isa_built(isa) || !kernels::cpu_supports(isa)) {
      missing += std::string{missing.empty() ? "" : ", "} +
                 kernels::to_string(isa) +
                 (kernels::isa_built(isa) ? " (not supported by this CPU)"
                                          : " (not built)");
      continue;
    }
    SCOPED_TRACE(kernels::to_string(isa));
    body(isa);
  }
  if (!missing.empty()) GTEST_SKIP() << "levels not run: " << missing;
}

}  // namespace mog::test
