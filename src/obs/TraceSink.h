//===- obs/TraceSink.h - Event-trace recording observer ---------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A built-in observer that records the event stream and serialises it as
/// either JSONL (one JSON object per line; the machine-diffable format the
/// cross-level equality tests use) or the Chrome trace_event format
/// (load the file in chrome://tracing or https://ui.perfetto.dev).  The
/// buffer is bounded: once MaxEvents records are held, further events are
/// counted but dropped, so tracing a long run cannot exhaust memory.
///
/// Timestamps: on the cycle-accurate levels the cycle counter is the
/// clock; on Spec/Machine/Isa the retirement index is used instead (one
/// "microsecond" per instruction in the Chrome view).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_OBS_TRACESINK_H
#define SILVER_OBS_TRACESINK_H

#include "obs/Observer.h"

#include <iosfwd>

namespace silver {
namespace obs {

class TraceSink : public Observer {
public:
  explicit TraceSink(size_t MaxEvents = 1'000'000) : MaxEvents(MaxEvents) {}

  /// Labels FFI spans with call names (sys::FfiIndex order).
  void setFfiNames(std::vector<std::string> Names) {
    FfiNames = std::move(Names);
  }

  /// Records kept (after the cap) and whether anything was dropped.
  size_t size() const { return Recs.size(); }
  bool truncated() const { return Dropped != 0; }
  uint64_t dropped() const { return Dropped; }

  /// One record of the stream, exposed for tests (the retire-stream
  /// equality test compares pc+opcode sequences across levels).
  struct Rec {
    enum class Kind : uint8_t { Retire, Mem, FfiEntry, FfiExit };
    Kind K;
    uint64_t Cycle;  ///< cycles ticked when the event fired
    uint64_t Retire; ///< instructions retired when the event fired
    Word Addr;       ///< pc (Retire) or address (Mem)
    uint8_t Op;      ///< opcode (Retire), size (Mem), or FFI index
    bool IsWrite;    ///< Mem only
    const char *Name; ///< mnemonic (Retire; may be null)
  };
  const std::vector<Rec> &records() const { return Recs; }

  /// The pc+opcode retire sequence (the cross-level comparison key).
  std::vector<std::pair<Word, uint8_t>> retireStream() const;

  /// Writes one JSON object per line.
  void writeJsonl(std::ostream &Out) const;
  /// Writes a chrome://tracing-loadable JSON document.
  void writeChromeTrace(std::ostream &Out) const;

  // Observer implementation.
  void onRunBegin(stack::Level L) override;
  void onRetire(const RetireEvent &E) override;
  void onMem(const MemEvent &E) override;
  void onFfi(const FfiEvent &E) override;
  void onCycle(uint64_t CycleIndex) override;
  void onRunEnd() override;

private:
  void push(const Rec &R);
  std::string ffiLabel(unsigned Index) const;

  size_t MaxEvents;
  std::vector<std::string> FfiNames;
  std::vector<Rec> Recs;
  uint64_t Dropped = 0;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  stack::Level Level = stack::Level::Isa;
};

} // namespace obs
} // namespace silver

#endif // SILVER_OBS_TRACESINK_H
