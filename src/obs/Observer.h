//===- obs/Observer.h - Unified observability interface ---------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event stream between execution layers.  The paper's end-to-end
/// theorem says every level of Figure 1 produces the same observable
/// behaviour; this interface makes the *stream* of intermediate events —
/// instruction retirements, memory traffic, FFI-call spans, clock cycles —
/// observable at every level, so cross-level divergences surface at the
/// first differing event rather than at the final stdout comparison
/// (compare CompCert's trace-based correctness statement and the
/// interaction-tree semantics for RISC-V, PAPERS.md).
///
/// Dependency discipline: this module depends only on support/, so every
/// execution layer (isa, ffi, hdl, sys, machine, cpu, stack) can emit
/// events without cycles in the library graph.  Events therefore carry
/// raw words — opcode numbers, FFI indices — and the *consumers* that
/// want symbolic names (obs::Counters, obs::TraceSink) are configured
/// with name tables by the layer that owns them (stack::Executor).
///
/// Zero-cost-when-null: layers take an `Observer *` and emit only when it
/// is non-null; the uninstrumented paths (isa::run / isa::step without an
/// observer) are compiled from the same template with a no-op emitter and
/// are bit-identical to the pre-observability code.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_OBS_OBSERVER_H
#define SILVER_OBS_OBSERVER_H

#include "obs/Level.h"
#include "support/Bits.h"

#include <cstdint>
#include <string>
#include <vector>

namespace silver {
namespace obs {

/// Memory-region buckets, following the paper's Figure 2 image layout.
enum class Region : uint8_t {
  Startup,     ///< startup code
  Descriptor,  ///< descriptor table + exit cells
  Cmdline,     ///< command-line region
  Stdin,       ///< pre-filled standard input
  OutBuf,      ///< output buffer
  SyscallCode, ///< system-call code (+ called-id cell)
  Heap,        ///< CakeML-usable memory
  Code,        ///< compiled program code + data
  Other,       ///< outside every mapped region
};
inline constexpr unsigned NumRegions = 9;
const char *regionName(Region R);

/// Address-to-region classifier.  Built from a sys::MemoryLayout by
/// stack::Executor (obs itself is layout-agnostic).
class RegionMap {
public:
  /// Maps [Begin, End) to \p R.  Regions must not overlap.
  void add(Word Begin, Word End, Region R);
  /// Region containing \p Addr, or Region::Other.
  Region classify(Word Addr) const;
  bool empty() const { return Entries.empty(); }

private:
  struct Entry {
    Word Begin;
    Word End;
    Region R;
  };
  std::vector<Entry> Entries; ///< kept sorted by Begin
};

/// One retired instruction.  At the Isa/Machine levels this is one Next
/// step; at the Rtl/Verilog levels it is a retire pulse of the core.  The
/// pc+opcode stream is the cross-level comparison key: all four levels
/// below Spec must produce the same sequence.
struct RetireEvent {
  Word Pc = 0;
  uint8_t Opcode = 0;           ///< isa::Opcode as a raw number
  const char *Mnemonic = nullptr; ///< static opcode name (may be null)
  uint64_t Index = 0;           ///< 0-based retirement index of this run
};

/// One data memory access (loads/stores; not instruction fetches).
struct MemEvent {
  Word Addr = 0;
  uint8_t Size = 0; ///< bytes: 1 or 4
  bool IsWrite = false;
};

/// FFI-call span boundary.  At the machine level the oracle call is
/// instantaneous (entry and exit in the same step); at the Isa/Rtl levels
/// the span covers the hand-written system-call code.
struct FfiEvent {
  unsigned Index = 0; ///< basis call index (sys::FfiIndex order)
  bool Entry = true;
};

/// The observer interface.  All callbacks default to no-ops so observers
/// override only what they consume.  Emitting layers hold a raw pointer
/// and never take ownership.
class Observer {
public:
  virtual ~Observer();

  /// A run at \p L starts.  Always paired with onRunEnd.
  virtual void onRunBegin(stack::Level L);
  virtual void onRetire(const RetireEvent &E);
  virtual void onMem(const MemEvent &E);
  virtual void onFfi(const FfiEvent &E);
  /// One clock cycle ticked (Rtl/Verilog only).  \p CycleIndex is 0-based.
  virtual void onCycle(uint64_t CycleIndex);
  virtual void onRunEnd();
};

/// Fan-out to several observers (e.g. a TraceSink and a Counters at once).
class MultiObserver : public Observer {
public:
  MultiObserver() = default;
  explicit MultiObserver(std::vector<Observer *> Sinks)
      : Sinks(std::move(Sinks)) {}
  void add(Observer *O) { Sinks.push_back(O); }

  void onRunBegin(stack::Level L) override;
  void onRetire(const RetireEvent &E) override;
  void onMem(const MemEvent &E) override;
  void onFfi(const FfiEvent &E) override;
  void onCycle(uint64_t CycleIndex) override;
  void onRunEnd() override;

private:
  std::vector<Observer *> Sinks;
};

} // namespace obs
} // namespace silver

#endif // SILVER_OBS_OBSERVER_H
