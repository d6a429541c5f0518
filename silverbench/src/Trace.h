//===- silverbench/Trace.h - In-memory spans around layer calls -*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer.  Every call the benchmark makes into a layer
/// is wrapped in a Scope, which always times the call (the untraced
/// end-to-end metrics need the durations) and, when tracing is on, also
/// records a span: name, start, end, parent span and op id.  Spans stay
/// in memory until the benchmark writes them out at exit.
///
//===----------------------------------------------------------------------===//

#ifndef SILVERBENCH_TRACE_H
#define SILVERBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace sb {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Span {
  std::string Name;
  int64_t StartNs = 0; ///< since the tracer's epoch
  int64_t EndNs = 0;
  int Parent = -1; ///< index into the span list; -1 for a root
  uint64_t Op = 0;
};

class Tracer {
public:
  Tracer(bool Enabled, Clock::time_point Epoch)
      : Enabled(Enabled), Epoch(Epoch) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Times one call; records its span on destruction (or stop()) when
  /// the tracer is enabled.  Nested scopes on one thread become the
  /// children of the enclosing one.
  class Scope {
  public:
    Scope(Tracer &T, std::string Name);
    ~Scope() { stop(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Ends the span (idempotent) and returns its duration in ms.
    double stop();

  private:
    Tracer &T;
    std::string Name;
    Clock::time_point Start;
    int Index = -1; ///< reserved span slot when enabled
    int SavedCurrent = -1;
    double Ms = -1;
  };

  bool enabled() const { return Enabled; }
  /// Turns recording on or off; only while no scope is open and no
  /// other thread records.
  void setEnabled(bool On) { Enabled = On; }
  /// The op id stamped on spans opened from now on by this thread.
  void setOp(uint64_t Op);

  /// Records a finished span whose start and end were taken on
  /// different threads (a service job from its due time to its settle).
  void record(const std::string &Name, Clock::time_point Start,
              Clock::time_point End, uint64_t Op);

  /// Self time (duration minus the part covered by direct children) of
  /// every recorded span, in ms, grouped by span name.
  std::map<std::string, std::vector<double>> selfTimesMs() const;

  /// Writes the spans as a JSON array.
  void writeJson(std::ostream &Os) const;

private:
  int64_t sinceEpoch(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }

  bool Enabled;
  Clock::time_point Epoch;
  mutable std::mutex Mu; ///< guards Spans (the svc workload has two threads)
  std::vector<Span> Spans;
};

} // namespace sb

#endif // SILVERBENCH_TRACE_H
