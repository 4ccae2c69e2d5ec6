//===- Calibrate.h - Machine-speed reference kernel -------------*- C++ -*-===//

#ifndef GADT_PERFBENCH_CALIBRATE_H
#define GADT_PERFBENCH_CALIBRATE_H

#include <cstdint>

namespace perfbench {

/// One timing (µs) of a fixed kernel: fill 32 Ki integers, index them in a
/// hash map, sort them and probe the map.
/// \p Checksum seeds the fill and absorbs the result, so the work is not
/// elided.
double kernelMicros(uint64_t &Checksum);

} // namespace perfbench

#endif // GADT_PERFBENCH_CALIBRATE_H
