#include "mog/telemetry/profile.hpp"

#include <cmath>
#include <cstdint>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"
#include "mog/kernels/opt_level.hpp"

namespace mog::telemetry {

namespace {

/// Flat name -> value view over either metric encoding (bench-report case
/// metrics with a "ctr_" prefix, or registry rollup means without one).
struct MetricView {
  std::vector<std::pair<std::string, double>> values;

  bool has(const std::string& name) const {
    for (const auto& [k, v] : values)
      if (k == name) return true;
    return false;
  }
  double get(const std::string& name, double fallback = 0.0) const {
    for (const auto& [k, v] : values)
      if (k == name) return v;
    return fallback;
  }
  std::uint64_t count(const std::string& name) const {
    const double v = get(name);
    return v > 0 ? static_cast<std::uint64_t>(std::llround(v)) : 0;
  }
};

KernelProfile build_profile(const std::string& name, const MetricView& m,
                            const gpusim::DeviceSpec& spec) {
  KernelProfile p;
  p.name = name;

  gpusim::KernelStats& s = p.stats;
  for (const gpusim::KernelCounter& c : gpusim::kKernelCounters)
    s.*c.field = m.count(c.name);
  s.shared_bytes_per_block = m.count("shared_bytes_per_block");
  s.regs_per_thread = static_cast<int>(m.count("regs_per_thread"));
  s.threads_per_block = static_cast<int>(m.count("threads_per_block"));

  // Dumps export the memory-access-efficiency ratio but not the requested
  // bytes behind it; reconstruct requested bytes so the derived efficiency
  // on the rebuilt stats reproduces the dumped value.
  const double eff = m.get("memory_access_efficiency", 1.0);
  s.bytes_requested_load = static_cast<std::uint64_t>(
      std::llround(eff * static_cast<double>(s.bytes_transferred())));
  s.bytes_requested_store = 0;

  p.occupancy = gpusim::compute_occupancy(
      spec, s.regs_per_thread, s.threads_per_block, s.shared_bytes_per_block);
  p.timing = gpusim::kernel_time(s, p.occupancy, spec);
  return p;
}

constexpr const char* kCtrPrefix = "ctr_";

/// Case metrics -> MetricView, keeping only ctr_-prefixed keys (stripped).
MetricView ctr_view(const Json& metrics) {
  MetricView m;
  for (const auto& [key, value] : metrics.as_object())
    if (key.rfind(kCtrPrefix, 0) == 0 && value.is_number())
      m.values.emplace_back(key.substr(4), value.as_number());
  return m;
}

std::string fmt_ms(double seconds) {
  return strprintf("%8.3f ms", seconds * 1e3);
}
std::string fmt_pct(double fraction) {
  return strprintf("%6.2f %%", fraction * 100.0);
}

const char* bound_label(const KernelProfile& p) {
  return p.memory_bound() ? "memory-bound" : "compute-bound";
}

/// The optimization levels present in the dump, in ladder order.
std::vector<const KernelProfile*> ladder_cases(const ProfileDump& dump) {
  std::vector<const KernelProfile*> out;
  for (const kernels::OptLevel level : kernels::kAllLevels)
    if (const KernelProfile* p = dump.find(kernels::to_string(level)))
      out.push_back(p);
  return out;
}

std::string delta_pp(double from, double to) {
  return strprintf("%+.2f pp", (to - from) * 100.0);
}

std::string delta_rel(double from, double to) {
  if (from == 0.0) return "n/a";
  return strprintf("%+.1f %%", (to / from - 1.0) * 100.0);
}

}  // namespace

const KernelProfile* ProfileDump::find(const std::string& name) const {
  for (const KernelProfile& k : kernels)
    if (k.name == name) return &k;
  return nullptr;
}

ProfileDump load_profile_dump(const Json& doc, const std::string& source,
                              const gpusim::DeviceSpec& spec) {
  ProfileDump dump;
  dump.source = source;
  dump.spec = spec;

  if (const Json* cases = doc.find("cases")) {
    // Schema-v1 bench report: one kernel per case that carries counters.
    if (const Json* workload = doc.find("workload")) {
      if (const Json* w = workload->find("width"))
        dump.width = static_cast<int>(w->as_number());
      if (const Json* h = workload->find("height"))
        dump.height = static_cast<int>(h->as_number());
      if (const Json* f = workload->find("frames"))
        dump.frames = static_cast<int>(f->as_number());
    }
    for (const Json& c : cases->as_array()) {
      const Json* name = c.find("name");
      const Json* metrics = c.find("metrics");
      if (name == nullptr || metrics == nullptr) continue;
      const MetricView m = ctr_view(*metrics);
      // Cases without counters (pure wall-clock benches) are not kernels.
      if (m.values.empty() || m.count("threads_per_block") == 0) continue;
      dump.kernels.push_back(build_profile(name->as_string(), m, spec));
    }
  } else if (const Json* metrics = doc.find("metrics")) {
    // CounterRegistry::to_json(): rollups keyed by bare metric name; the
    // launch means reconstruct one aggregate kernel.
    MetricView m;
    for (const auto& [key, rollup] : metrics->as_object())
      if (const Json* mean = rollup.find("mean"))
        m.values.emplace_back(key, mean->as_number());
    if (m.count("threads_per_block") > 0)
      dump.kernels.push_back(build_profile("aggregate", m, spec));
  } else {
    throw Error{strprintf(
        "%s: neither a bench report (cases) nor a counter dump (metrics)",
        source.empty() ? "<dump>" : source.c_str())};
  }

  MOG_CHECK(!dump.kernels.empty(),
            strprintf("%s: no kernel counters to profile",
                      source.empty() ? "<dump>" : source.c_str()));
  return dump;
}

ProfileDump load_profile_file(const std::string& path,
                              const gpusim::DeviceSpec& spec) {
  return load_profile_dump(read_json_file(path), path, spec);
}

std::string render_profile_table(const ProfileDump& dump) {
  std::string out = strprintf("mogprof — %s\n", dump.source.c_str());
  out += strprintf("device: %s", dump.spec.name.c_str());
  if (dump.width > 0)
    out += strprintf(", workload %dx%d x%d frames", dump.width, dump.height,
                     dump.frames);
  out += "\n\n";
  out += strprintf("%-10s %11s %10s %10s %10s %5s %6s %7s  %s\n", "kernel",
                   "time/frame", "divergence", "coalesce", "occupancy", "regs",
                   "GB/s", "%peak", "bound");
  for (const KernelProfile& k : dump.kernels) {
    const double peak_frac =
        dump.spec.dram_bandwidth_gbps > 0
            ? k.dram_gbps() / dump.spec.dram_bandwidth_gbps
            : 0.0;
    out += strprintf(
        "%-10s %s   %s   %s   %s %5d %6.1f %6.1f%%  %s (%s-limited)\n",
        k.name.c_str(), fmt_ms(k.timing.total_seconds).c_str(),
        fmt_pct(k.divergence()).c_str(),
        fmt_pct(k.coalescing_efficiency()).c_str(),
        fmt_pct(k.occupancy.achieved).c_str(), k.stats.regs_per_thread,
        k.dram_gbps(), peak_frac * 100.0, bound_label(k),
        gpusim::to_string(k.occupancy.limiter));
  }
  return out;
}

std::string render_step_report(const ProfileDump& dump) {
  const std::vector<const KernelProfile*> ladder = ladder_cases(dump);
  if (ladder.size() < 2) return "";

  std::string out =
      "optimization-step attribution (A..F ladder + fused-postproc G):\n";
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    const KernelProfile& a = *ladder[i - 1];
    const KernelProfile& b = *ladder[i];
    const char* what = "";
    for (const kernels::OptLevel level : kernels::kAllLevels)
      if (b.name == kernels::to_string(level)) what = kernels::describe(level);
    out += strprintf("\n  step %s -> %s  (%s)\n", a.name.c_str(),
                     b.name.c_str(), what);
    out += strprintf("    branch divergence  %s -> %s  (%s)\n",
                     fmt_pct(a.divergence()).c_str(),
                     fmt_pct(b.divergence()).c_str(),
                     delta_pp(a.divergence(), b.divergence()).c_str());
    out += strprintf(
        "    uncoalesced share  %s -> %s  (%s)\n",
        fmt_pct(a.uncoalesced_share()).c_str(),
        fmt_pct(b.uncoalesced_share()).c_str(),
        delta_pp(a.uncoalesced_share(), b.uncoalesced_share()).c_str());
    out += strprintf(
        "    gmem transactions  %8llu -> %8llu  (%s)\n",
        static_cast<unsigned long long>(a.stats.total_transactions()),
        static_cast<unsigned long long>(b.stats.total_transactions()),
        delta_rel(static_cast<double>(a.stats.total_transactions()),
                  static_cast<double>(b.stats.total_transactions()))
            .c_str());
    out += strprintf("    regs/thread        %8d -> %8d\n",
                     a.stats.regs_per_thread, b.stats.regs_per_thread);
    out += strprintf(
        "    occupancy          %s -> %s  (%s)\n",
        fmt_pct(a.occupancy.achieved).c_str(),
        fmt_pct(b.occupancy.achieved).c_str(),
        delta_pp(a.occupancy.achieved, b.occupancy.achieved).c_str());
    out += strprintf(
        "    modeled time/frame %s -> %s  (%s)\n",
        fmt_ms(a.timing.total_seconds).c_str(),
        fmt_ms(b.timing.total_seconds).c_str(),
        delta_rel(a.timing.total_seconds, b.timing.total_seconds).c_str());
  }
  return out;
}

std::string render_profile_diff(const ProfileDump& baseline,
                                const ProfileDump& fresh) {
  std::string out = strprintf("mogprof diff — baseline: %s\n               fresh:    %s\n\n",
                              baseline.source.c_str(), fresh.source.c_str());
  for (const KernelProfile& b : baseline.kernels) {
    const KernelProfile* f = fresh.find(b.name);
    if (f == nullptr) {
      out += strprintf("kernel %-8s only in baseline\n", b.name.c_str());
      continue;
    }
    out += strprintf("kernel %s:\n", b.name.c_str());
    out += strprintf(
        "  time/frame  %s -> %s  (%s)\n", fmt_ms(b.timing.total_seconds).c_str(),
        fmt_ms(f->timing.total_seconds).c_str(),
        delta_rel(b.timing.total_seconds, f->timing.total_seconds).c_str());
    out += strprintf("  divergence  %s -> %s  (%s)\n",
                     fmt_pct(b.divergence()).c_str(),
                     fmt_pct(f->divergence()).c_str(),
                     delta_pp(b.divergence(), f->divergence()).c_str());
    out += strprintf(
        "  coalescing  %s -> %s  (%s)\n",
        fmt_pct(b.coalescing_efficiency()).c_str(),
        fmt_pct(f->coalescing_efficiency()).c_str(),
        delta_pp(b.coalescing_efficiency(), f->coalescing_efficiency())
            .c_str());
    out += strprintf(
        "  occupancy   %s -> %s  (%s)\n", fmt_pct(b.occupancy.achieved).c_str(),
        fmt_pct(f->occupancy.achieved).c_str(),
        delta_pp(b.occupancy.achieved, f->occupancy.achieved).c_str());
    out += strprintf("  bound       %s -> %s\n", bound_label(b),
                     bound_label(*f));
  }
  for (const KernelProfile& f : fresh.kernels)
    if (baseline.find(f.name) == nullptr)
      out += strprintf("kernel %-8s only in fresh\n", f.name.c_str());
  return out;
}

}  // namespace mog::telemetry
