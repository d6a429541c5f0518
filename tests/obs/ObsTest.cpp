//===- tests/obs/ObsTest.cpp - observability subsystem unit tests --------------===//
//
// Pure obs/ tests: the Figure-2 region classifier, the deterministic
// counter aggregation, the bounded trace sink and its two serialisation
// formats, and the multi-observer fan-out.  No execution layers involved;
// events are synthesised by hand.
//
//===----------------------------------------------------------------------===//

#include "obs/Counters.h"
#include "obs/Observer.h"
#include "obs/TraceSink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace silver;
using namespace silver::obs;

namespace {

RegionMap figureTwoMap() {
  // A miniature Figure-2 layout: contiguous, in address order.
  RegionMap M;
  M.add(0, 64, Region::Startup);
  M.add(64, 128, Region::Descriptor);
  M.add(128, 256, Region::Cmdline);
  M.add(256, 512, Region::Stdin);
  M.add(512, 1024, Region::OutBuf);
  M.add(1024, 2048, Region::SyscallCode);
  M.add(2048, 4096, Region::Heap);
  M.add(4096, 8192, Region::Code);
  return M;
}

// Replays the same synthetic event stream into any observer.
void replayStream(Observer &O) {
  O.onRunBegin(stack::Level::Rtl);
  for (uint64_t I = 0; I != 8; ++I) {
    O.onCycle(2 * I);
    O.onCycle(2 * I + 1);
    RetireEvent R;
    R.Pc = 4096 + 4 * I;
    R.Opcode = static_cast<uint8_t>(I % 3);
    R.Index = I;
    O.onRetire(R);
    MemEvent M;
    M.Addr = (I % 2) ? 2048 + I : 512 + I; // heap load / outbuf store
    M.Size = 4;
    M.IsWrite = (I % 2) == 0;
    O.onMem(M);
  }
  O.onFfi({/*Index=*/2, /*Entry=*/true});
  O.onCycle(16);
  RetireEvent R;
  R.Pc = 1024;
  R.Opcode = 5;
  R.Index = 8;
  O.onRetire(R);
  O.onFfi({/*Index=*/2, /*Entry=*/false});
  O.onRunEnd();
}

} // namespace

TEST(RegionMap, ClassifiesBoundaries) {
  RegionMap M = figureTwoMap();
  EXPECT_EQ(M.classify(0), Region::Startup);
  EXPECT_EQ(M.classify(63), Region::Startup);
  EXPECT_EQ(M.classify(64), Region::Descriptor);
  EXPECT_EQ(M.classify(255), Region::Cmdline);
  EXPECT_EQ(M.classify(256), Region::Stdin);
  EXPECT_EQ(M.classify(600), Region::OutBuf);
  EXPECT_EQ(M.classify(1024), Region::SyscallCode);
  EXPECT_EQ(M.classify(4095), Region::Heap);
  EXPECT_EQ(M.classify(8191), Region::Code);
  // Ends are exclusive; unmapped space is Other.
  EXPECT_EQ(M.classify(8192), Region::Other);
  EXPECT_EQ(M.classify(0xdeadbeef), Region::Other);
}

TEST(RegionMap, EmptyMapsEverythingToOther) {
  RegionMap M;
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.classify(0), Region::Other);
  EXPECT_EQ(M.classify(4096), Region::Other);
}

TEST(Counters, AggregatesSyntheticStream) {
  Counters C(figureTwoMap(), {"read_stdin", "write_stdout", "get_arg"});
  replayStream(C);
  EXPECT_EQ(C.Retired, 9u);
  EXPECT_EQ(C.Cycles, 17u);
  EXPECT_DOUBLE_EQ(C.cpi(), 17.0 / 9.0);
  // 8 accesses alternate store-to-outbuf / load-from-heap.
  EXPECT_EQ(C.RegionStores[static_cast<size_t>(Region::OutBuf)], 4u);
  EXPECT_EQ(C.RegionLoads[static_cast<size_t>(Region::Heap)], 4u);
  EXPECT_EQ(C.RegionLoads[static_cast<size_t>(Region::Other)], 0u);
  // The FFI span covered one retire and one cycle.
  ASSERT_GT(C.Ffi.size(), 2u);
  EXPECT_EQ(C.Ffi[2].Calls, 1u);
  EXPECT_EQ(C.Ffi[2].Instructions, 1u);
  EXPECT_EQ(C.Ffi[2].Cycles, 1u);
  // The named call shows up in the report.
  EXPECT_NE(C.report().find("get_arg"), std::string::npos);
}

TEST(Counters, DeterministicAcrossIdenticalRuns) {
  // Two observers fed the same stream produce byte-identical reports —
  // the property the perf-tracking workflow depends on.
  Counters A(figureTwoMap()), B(figureTwoMap());
  replayStream(A);
  replayStream(B);
  EXPECT_EQ(A.report(), B.report());
  EXPECT_EQ(A.toJson(), B.toJson());

  // And reset() really does return to the zero state.
  Counters Fresh(figureTwoMap());
  A.reset();
  replayStream(A);
  replayStream(Fresh);
  EXPECT_EQ(A.report(), Fresh.report());
}

TEST(Counters, MergeFromSumsEveryTable) {
  Counters A(figureTwoMap(), {"read_stdin", "write_stdout", "get_arg"});
  Counters B(figureTwoMap(), {"read_stdin", "write_stdout", "get_arg"});
  replayStream(A);
  replayStream(B);
  Counters Twice(figureTwoMap(), {"read_stdin", "write_stdout", "get_arg"});
  replayStream(Twice);
  replayStream(Twice);
  A.mergeFrom(B);
  // Merging two single-stream counters equals one counter that saw the
  // stream twice.
  EXPECT_EQ(A.report(), Twice.report());
  EXPECT_EQ(A.toJson(), Twice.toJson());
  EXPECT_EQ(A.Retired, 18u);
  EXPECT_EQ(A.Cycles, 34u);
}

TEST(Counters, MergeFromGrowsTheFfiTable) {
  Counters A, B;
  A.Ffi.resize(1);
  A.Ffi[0].Calls = 2;
  B.Ffi.resize(3);
  B.Ffi[0].Calls = 1;
  B.Ffi[2].Calls = 7;
  A.mergeFrom(B);
  ASSERT_EQ(A.Ffi.size(), 3u);
  EXPECT_EQ(A.Ffi[0].Calls, 3u);
  EXPECT_EQ(A.Ffi[1].Calls, 0u);
  EXPECT_EQ(A.Ffi[2].Calls, 7u);
}

TEST(Counters, MergeIsAssociativeAndCommutative) {
  // Three counters with deliberately different shapes (distinct totals
  // and different FFI table lengths), merged in both groupings and both
  // orders — the service's per-worker aggregation must not depend on
  // which worker merges first.
  auto Make = [](uint64_t Seed) {
    Counters C;
    C.Retired = Seed * 11;
    C.Cycles = Seed * 7;
    for (size_t I = 0; I != C.OpcodeCounts.size(); ++I)
      C.OpcodeCounts[I] = Seed * 100 + I;
    for (size_t I = 0; I != NumRegions; ++I) {
      C.RegionLoads[I] = Seed + I;
      C.RegionStores[I] = 2 * Seed + I;
    }
    C.Ffi.resize(1 + Seed % 3);
    for (size_t I = 0; I != C.Ffi.size(); ++I) {
      C.Ffi[I].Calls = Seed + I;
      C.Ffi[I].Instructions = Seed * 3 + I;
      C.Ffi[I].Cycles = Seed * 5 + I;
    }
    return C;
  };

  // (A + B) + C
  Counters Left = Make(1);
  Left.mergeFrom(Make(2));
  Left.mergeFrom(Make(3));
  // A + (B + C)
  Counters Right = Make(2);
  Right.mergeFrom(Make(3));
  Counters RightOuter = Make(1);
  RightOuter.mergeFrom(Right);
  EXPECT_EQ(Left.toJson(), RightOuter.toJson());

  // C + B + A (commuted)
  Counters Commuted = Make(3);
  Commuted.mergeFrom(Make(2));
  Commuted.mergeFrom(Make(1));
  EXPECT_EQ(Left.toJson(), Commuted.toJson());

  // Zero is the identity.
  Counters WithZero = Make(1);
  WithZero.mergeFrom(Counters());
  EXPECT_EQ(WithZero.toJson(), Make(1).toJson());
}

TEST(Counters, CpiDegenerateCases) {
  Counters C;
  EXPECT_DOUBLE_EQ(C.cpi(), 0.0); // nothing retired
  C.onRunBegin(stack::Level::Isa);
  RetireEvent R;
  C.onRetire(R);
  C.onRunEnd();
  EXPECT_DOUBLE_EQ(C.cpi(), 1.0); // no clock: one step per retire
}

TEST(TraceSink, RecordsAndSerialises) {
  TraceSink Sink;
  Sink.setFfiNames({"read_stdin", "write_stdout", "get_arg"});
  replayStream(Sink);
  EXPECT_FALSE(Sink.truncated());
  // 9 retires + 8 mem + 2 ffi boundaries.
  EXPECT_EQ(Sink.size(), 19u);

  std::vector<std::pair<Word, uint8_t>> Stream = Sink.retireStream();
  ASSERT_EQ(Stream.size(), 9u);
  EXPECT_EQ(Stream.front().first, 4096u);
  EXPECT_EQ(Stream.back().first, 1024u);
  EXPECT_EQ(Stream.back().second, 5u);

  std::ostringstream Jsonl;
  Sink.writeJsonl(Jsonl);
  std::string J = Jsonl.str();
  // One object per line, machine-diffable.
  EXPECT_EQ(static_cast<size_t>(std::count(J.begin(), J.end(), '\n')),
            Sink.size());
  EXPECT_NE(J.find("\"retire\""), std::string::npos);

  std::ostringstream Chrome;
  Sink.writeChromeTrace(Chrome);
  std::string C = Chrome.str();
  // chrome://tracing object format.
  EXPECT_EQ(C.find("{"), 0u);
  EXPECT_NE(C.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(C.find("get_arg"), std::string::npos);
  EXPECT_EQ(C.rfind("}"), C.size() - std::string("}\n").size());
}

TEST(TraceSink, BoundedBufferDropsButCounts) {
  TraceSink Sink(/*MaxEvents=*/5);
  replayStream(Sink); // 19 records offered
  EXPECT_EQ(Sink.size(), 5u);
  EXPECT_TRUE(Sink.truncated());
  EXPECT_EQ(Sink.dropped(), 14u);
}

TEST(MultiObserver, FansOutToAllSinks) {
  Counters A, B;
  MultiObserver Multi({&A});
  Multi.add(&B);
  replayStream(Multi);
  EXPECT_EQ(A.Retired, 9u);
  EXPECT_EQ(A.report(), B.report());
}
