//===- Log.h - Error reporting for tools and examples -----------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// logError() is how the examples and tools report a failure to a human:
/// one "component: message" line on stderr. Telemetry about what a run did
/// lives in the span trace (obs/Trace.h), not here.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_OBS_LOG_H
#define GADT_OBS_LOG_H

#include <cstdio>
#include <string_view>

namespace gadt {
namespace obs {

/// Prints "Component: Msg" to stderr, adding a newline unless \p Msg ends
/// with one.
inline void logError(const char *Component, std::string_view Msg) {
  std::fprintf(stderr, "%s: %.*s%s", Component,
               static_cast<int>(Msg.size()), Msg.data(),
               (!Msg.empty() && Msg.back() == '\n') ? "" : "\n");
}

} // namespace obs
} // namespace gadt

#endif // GADT_OBS_LOG_H
