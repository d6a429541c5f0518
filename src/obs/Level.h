//===- obs/Level.h - The execution levels of Figure 1 -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The levels of Figure 1, defined once for the whole stack.  The stack
/// owns them (stack::Executor runs a program at one), but the event
/// stream below it (obs/Observer.h) labels every run with its level, so
/// the enum lives in the lowest library that names it.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_OBS_LEVEL_H
#define SILVER_OBS_LEVEL_H

#include <cstdint>

namespace silver {
namespace stack {

/// Execution level (Figure 1).
enum class Level : uint8_t { Spec, Machine, Isa, Rtl, Verilog };

/// Stable identifier for reports, traces and counters.
inline const char *levelName(Level L) {
  switch (L) {
  case Level::Spec:
    return "spec";
  case Level::Machine:
    return "machine-sem";
  case Level::Isa:
    return "isa";
  case Level::Rtl:
    return "rtl";
  case Level::Verilog:
    return "verilog";
  }
  return "?";
}

} // namespace stack
} // namespace silver

#endif // SILVER_OBS_LEVEL_H
