#pragma once

namespace perfbench {

/// Checks the benchmark's own machinery: a short 16-core and 64-core
/// simulation through both decorators is byte-identical to the plain run,
/// and the percentile and self-time arithmetic give known answers. Prints
/// one line per check; returns 0 when all pass.
int run_selftest();

}  // namespace perfbench
