// The benchmark's reference kernel: a fixed amount of host work that shares
// no code with src/, timed to measure how fast the machine is right now.
//
// On a shared host the CPU speed seen by one process drifts (by up to 1.7x
// over seconds to minutes on a 4-vCPU Xeon), and every host time the
// benchmark measures drifts with it.  run.py divides each measured time by
// the kernel's CPU time taken just before and after it, which cancels
// that drift; see README.md, "Time base".
#pragma once

namespace ulsocks::benchmark {

/// CPU seconds this thread spends on one pass of the reference kernel.
[[nodiscard]] double reference_seconds();

}  // namespace ulsocks::benchmark
