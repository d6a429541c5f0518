//===- obs/Counters.h - Aggregating performance counters --------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A built-in observer that aggregates the event stream into the numbers
/// the ROADMAP's perf work needs: retired instructions, clock cycles, CPI,
/// per-opcode retirement counts, per-Figure-2-region load/store traffic,
/// and per-FFI-call cost (calls, instructions and cycles spent inside the
/// system-call code).  Deterministic: two identical runs produce
/// byte-identical reports.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_OBS_COUNTERS_H
#define SILVER_OBS_COUNTERS_H

#include "obs/Observer.h"

#include <array>

namespace silver {
namespace obs {

class Counters : public Observer {
public:
  /// \p Map buckets memory traffic by region (empty: everything lands in
  /// Region::Other).  \p FfiNames label the per-call rows of report();
  /// indices beyond the table print as "ffi#N".
  explicit Counters(RegionMap Map = {}, std::vector<std::string> FfiNames = {})
      : Map(std::move(Map)), FfiNames(std::move(FfiNames)) {}

  // -- aggregated state (public: this is a read-out struct) --
  uint64_t Retired = 0; ///< instructions retired
  uint64_t Cycles = 0;  ///< clock cycles ticked (0 at Spec/Machine/Isa)
  std::array<uint64_t, 16> OpcodeCounts{}; ///< by isa::Opcode number
  std::array<uint64_t, NumRegions> RegionLoads{};
  std::array<uint64_t, NumRegions> RegionStores{};

  struct FfiCost {
    uint64_t Calls = 0;
    uint64_t Instructions = 0; ///< retired inside the call span
    uint64_t Cycles = 0;       ///< cycles inside the call span (Rtl/Verilog)
  };
  std::vector<FfiCost> Ffi; ///< indexed by FFI call index

  /// Cycles per retired instruction.  The ISA and machine levels have no
  /// clock, so CPI is 1 by definition there (one Next step per retire).
  double cpi() const {
    return Retired == 0 ? 0.0
           : Cycles == 0 ? 1.0
                         : static_cast<double>(Cycles) / Retired;
  }

  void reset();

  /// Folds \p Other's aggregated state into this counter: plain sums of
  /// the retire/cycle totals, the opcode and region tables, and the FFI
  /// cost rows (the FFI vector grows to the longer of the two).  The
  /// operation is associative and commutative, which is what lets
  /// per-worker counters aggregate into service-wide totals off the hot
  /// path (svc::Service): workers update their own counter lock-free
  /// during a run and merge in a cold section afterwards.  Only settled
  /// state is merged — merge counters between runs, not mid-FFI-span
  /// (the in-progress span bookkeeping stays with each counter).
  void mergeFrom(const Counters &Other);

  /// Human-readable multi-line report.
  std::string report() const;
  /// Single-line JSON object with the same content.
  std::string toJson() const;

  // Observer implementation.
  void onRunBegin(stack::Level L) override;
  void onRetire(const RetireEvent &E) override;
  void onMem(const MemEvent &E) override;
  void onFfi(const FfiEvent &E) override;
  void onCycle(uint64_t CycleIndex) override;
  void onRunEnd() override;

private:
  std::string ffiLabel(unsigned Index) const;

  RegionMap Map;
  std::vector<std::string> FfiNames;
  stack::Level Level = stack::Level::Isa;
  bool InFfi = false;
  unsigned FfiIndex = 0;
  uint64_t FfiEntryRetired = 0;
  uint64_t FfiEntryCycles = 0;
};

} // namespace obs
} // namespace silver

#endif // SILVER_OBS_COUNTERS_H
