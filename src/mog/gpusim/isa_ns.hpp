// The namespace of the x86-64 level a translation unit is compiled for.
//
// The device kernels are built once per x86-64 level (see
// mog/kernels/isa.hpp), and the interpreter layer they instantiate — Vec,
// Pred, WarpCtx, the charge and register accumulators, BlockCtx — is
// header-inline. GCC emits inline functions and template instantiations as
// weak symbols, and the linker keeps one copy per symbol name, so a second
// un-namespaced copy would link cleanly and one level's code would silently
// serve the other. Declaring that layer inside `inline namespace
// MOG_ISA_NS` gives each level's copy its own names: source code still says
// gpusim::Vec, and the symbol says which level it was built for.
//
// The kernel level targets define MOG_ISA_NS; every other translation unit
// compiles at baseline and gets the default.
#pragma once

#ifndef MOG_ISA_NS
#define MOG_ISA_NS isa_baseline
#endif
