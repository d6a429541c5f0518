//===- tests/svc/ServiceTest.cpp - in-process service engine ------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/Service.h"

#include "stack/Apps.h"

#include "gtest/gtest.h"

#include <chrono>
#include <thread>

using namespace silver;
using namespace silver::svc;

namespace {

JobSpec helloJob() {
  JobSpec S;
  S.Source = stack::helloSource();
  S.Level = stack::Level::Isa;
  S.CommandLine = {"hello"};
  return S;
}

JobSpec wcJob(unsigned Lines) {
  JobSpec S;
  S.Source = stack::wcSource();
  S.Level = stack::Level::Isa;
  S.CommandLine = {"wc"};
  S.StdinData = stack::randomLines(Lines, 1);
  return S;
}

JobInfo submitAndWait(Service &Svc, const JobSpec &Spec,
                      uint64_t TimeoutMs = 60'000) {
  JobInfo Info = Svc.submit(Spec);
  if (Info.State == JobState::Rejected)
    return Info;
  std::optional<JobInfo> Done = Svc.waitSettled(Info.Id, TimeoutMs);
  return Done ? *Done : Info;
}

TEST(Service, HelloCompletes) {
  Service Svc({.Workers = 2});
  JobInfo Info = submitAndWait(Svc, helloJob());
  ASSERT_EQ(Info.State, JobState::Completed) << Info.Outcome.Error;
  EXPECT_EQ(Info.Outcome.Behaviour.StdoutData, "Hello, world!\n");
  EXPECT_EQ(Info.Outcome.Behaviour.ExitCode, 0);
  EXPECT_GT(Info.Outcome.Behaviour.Instructions, 0u);
  EXPECT_TRUE(Info.Outcome.HasDigest);
  EXPECT_NE(Info.Outcome.Digest.MemoryHash, 0u);
  EXPECT_EQ(Info.SlicesRun, 1u);
}

TEST(Service, SpecLevelJobCompletes) {
  Service Svc({.Workers = 1});
  JobSpec S = helloJob();
  S.Level = stack::Level::Spec;
  JobInfo Info = submitAndWait(Svc, S);
  ASSERT_EQ(Info.State, JobState::Completed) << Info.Outcome.Error;
  EXPECT_EQ(Info.Outcome.Behaviour.StdoutData, "Hello, world!\n");
  // The reference semantics has no machine state to digest.
  EXPECT_FALSE(Info.Outcome.HasDigest);
}

TEST(Service, PrepareCacheDeduplicatesCompilation) {
  Service Svc({.Workers = 1});
  for (int I = 0; I != 3; ++I) {
    JobInfo Info = submitAndWait(Svc, helloJob());
    ASSERT_EQ(Info.State, JobState::Completed) << Info.Outcome.Error;
  }
  stack::PrepareCache::CacheStats CS = Svc.prepareCacheStats();
  EXPECT_EQ(CS.Misses, 1u);
  EXPECT_EQ(CS.Hits, 2u);
}

TEST(Service, CompileErrorSettlesAsFailed) {
  Service Svc({.Workers = 1});
  JobSpec S = helloJob();
  S.Source = "val _ = this is not minicake";
  JobInfo Info = submitAndWait(Svc, S);
  ASSERT_EQ(Info.State, JobState::Failed);
  EXPECT_FALSE(Info.Outcome.Error.empty());
}

TEST(Service, TotalBudgetExhaustionIsTerminalTimeout) {
  Service Svc({.Workers = 1});
  JobSpec S = wcJob(50);
  S.MaxSteps = 500; // far below what wc needs
  JobInfo Info = submitAndWait(Svc, S);
  ASSERT_EQ(Info.State, JobState::TimedOut) << Info.Outcome.Error;
  // Terminal: resume must refuse.
  Result<JobInfo> R = Svc.resume(Info.Id);
  EXPECT_FALSE(bool(R));
}

/// Slice-vs-whole equivalence through the service: the whole run on the
/// reference interpreter, the sliced run on \p Backend.  Passing at
/// BackendKind::Jit checks both halves of the backend contract at once:
/// pausing and resuming keeps compiled-block state exact, and the final
/// digest is bit-identical to the interpreter's.
void expectSlicedRunMatchesWholeRun(stack::BackendKind Backend) {
  // Reference: the same job in one unsliced interpreter run.
  Service Svc({.Workers = 1});
  JobInfo Whole = submitAndWait(Svc, wcJob(20));
  ASSERT_EQ(Whole.State, JobState::Completed) << Whole.Outcome.Error;
  ASSERT_TRUE(Whole.Outcome.HasDigest);

  // The same job sliced: park/resume until it completes.
  JobSpec Sliced = wcJob(20);
  Sliced.Backend = Backend;
  Sliced.SliceInstructions = 20'000;
  JobInfo Info = Svc.submit(Sliced);
  ASSERT_EQ(Info.State, JobState::Queued);
  unsigned Resumes = 0;
  while (true) {
    std::optional<JobInfo> Now = Svc.waitSettled(Info.Id, 60'000);
    ASSERT_TRUE(Now.has_value());
    if (Now->State == JobState::Completed) {
      Info = *Now;
      break;
    }
    ASSERT_EQ(Now->State, JobState::Paused) << Now->Outcome.Error;
    ASSERT_TRUE(Now->Outcome.HasDigest); // every pause is digest-tagged
    ASSERT_LT(++Resumes, 1000u) << "job did not finish in 1000 slices";
    Result<JobInfo> R = Svc.resume(Info.Id);
    ASSERT_TRUE(bool(R)) << R.error().str();
  }
  EXPECT_GT(Resumes, 0u) << "slice budget never triggered a pause";
  EXPECT_GT(Info.SlicesRun, 1u);

  // Slicing must not change what the program computed.
  EXPECT_EQ(Info.Outcome.Behaviour.StdoutData,
            Whole.Outcome.Behaviour.StdoutData);
  EXPECT_EQ(Info.Outcome.Behaviour.Instructions,
            Whole.Outcome.Behaviour.Instructions);
  ASSERT_TRUE(Info.Outcome.HasDigest);
  EXPECT_EQ(Info.Outcome.Digest.Pc, Whole.Outcome.Digest.Pc);
  EXPECT_EQ(Info.Outcome.Digest.Regs, Whole.Outcome.Digest.Regs);
  EXPECT_EQ(Info.Outcome.Digest.MemoryHash, Whole.Outcome.Digest.MemoryHash);
  EXPECT_EQ(Info.Outcome.Digest.MemoryBytes,
            Whole.Outcome.Digest.MemoryBytes);
}

TEST(Service, SliceBudgetPausesThenResumesToSameDigest) {
  expectSlicedRunMatchesWholeRun(stack::BackendKind::Interp);
}

TEST(Service, JitSlicedRunMatchesInterpreterWholeRunDigest) {
  expectSlicedRunMatchesWholeRun(stack::BackendKind::Jit);
}

TEST(Service, WallClockBudgetParksTheJob) {
  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.ChunkInstructions = 10'000; // tight deadline checks
  Service Svc(Opts);
  JobSpec S = wcJob(2000);
  S.WallMsBudget = 1;
  JobInfo Info = submitAndWait(Svc, S);
  ASSERT_EQ(Info.State, JobState::Paused) << Info.Outcome.Error;
  EXPECT_GT(Info.Outcome.Behaviour.Instructions, 0u);
  Result<JobInfo> R = Svc.cancel(Info.Id);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->State, JobState::Cancelled);
}

TEST(Service, BackpressureRejectsWhenQueueFull) {
  ServiceOptions Opts;
  Opts.Workers = 0; // nothing drains the queue
  Opts.QueueDepth = 2;
  Service Svc(Opts);
  EXPECT_EQ(Svc.submit(helloJob()).State, JobState::Queued);
  EXPECT_EQ(Svc.submit(helloJob()).State, JobState::Queued);
  JobInfo Third = Svc.submit(helloJob());
  EXPECT_EQ(Third.State, JobState::Rejected);
  EXPECT_EQ(Third.Outcome.Error, "queue full");
  EXPECT_EQ(Third.Id, 0u) << "rejected submissions get no job id";
  EXPECT_EQ(Svc.queueDepth(), 2u);
}

TEST(Service, CancelQueuedJob) {
  ServiceOptions Opts;
  Opts.Workers = 0;
  Service Svc(Opts);
  JobInfo Info = Svc.submit(helloJob());
  ASSERT_EQ(Info.State, JobState::Queued);
  Result<JobInfo> R = Svc.cancel(Info.Id);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->State, JobState::Cancelled);
  // Idempotent on settled jobs.
  Result<JobInfo> Again = Svc.cancel(Info.Id);
  ASSERT_TRUE(bool(Again));
  EXPECT_EQ(Again->State, JobState::Cancelled);
}

TEST(Service, CancelUnknownJobIsAnError) {
  Service Svc({.Workers = 0});
  EXPECT_FALSE(bool(Svc.cancel(12345)));
  EXPECT_FALSE(bool(Svc.resume(12345)));
  EXPECT_FALSE(Svc.status(12345).has_value());
}

TEST(Service, IdleSessionsAreEvicted) {
  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.IdleEvictMs = 1;
  Service Svc(Opts);
  JobSpec S = wcJob(200);
  S.SliceInstructions = 10'000;
  JobInfo Info = submitAndWait(Svc, S);
  // With a 1ms idle budget the worker loop's own sweep may reclaim the
  // paused session before this thread observes it; either order is legal,
  // the invariant is that the session ends up Evicted.
  ASSERT_TRUE(Info.State == JobState::Paused ||
              Info.State == JobState::Evicted)
      << Info.Outcome.Error;
  std::optional<JobInfo> Now;
  for (int Tries = 0; Tries < 500; ++Tries) {
    Svc.evictIdleSessions();
    Now = Svc.status(Info.Id);
    ASSERT_TRUE(Now.has_value());
    if (Now->State == JobState::Evicted)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(Now.has_value());
  EXPECT_EQ(Now->State, JobState::Evicted);
  EXPECT_FALSE(bool(Svc.resume(Info.Id))) << "evicted sessions cannot resume";
}

TEST(Service, DrainFinishesInFlightWorkAndStopsAdmissions) {
  Service Svc({.Workers = 2});
  std::vector<uint64_t> Ids;
  for (int I = 0; I != 6; ++I) {
    JobInfo Info = Svc.submit(wcJob(20));
    ASSERT_EQ(Info.State, JobState::Queued);
    Ids.push_back(Info.Id);
  }
  Svc.drain();
  EXPECT_TRUE(Svc.draining());
  // Every job settled, none were killed.
  for (uint64_t Id : Ids) {
    std::optional<JobInfo> Info = Svc.status(Id);
    ASSERT_TRUE(Info.has_value());
    EXPECT_EQ(Info->State, JobState::Completed) << Info->Outcome.Error;
  }
  JobInfo Late = Svc.submit(helloJob());
  EXPECT_EQ(Late.State, JobState::Rejected);
  EXPECT_EQ(Late.Outcome.Error, "service is draining");
}

TEST(Service, FinishedHistoryIsPruned) {
  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.FinishedHistoryCap = 2;
  Service Svc(Opts);
  JobInfo First = submitAndWait(Svc, helloJob());
  ASSERT_EQ(First.State, JobState::Completed);
  for (int I = 0; I != 3; ++I)
    ASSERT_EQ(submitAndWait(Svc, helloJob()).State, JobState::Completed);
  // The oldest record is gone, the newest survive.
  EXPECT_FALSE(Svc.status(First.Id).has_value());
}

TEST(Service, StatsJsonCarriesTheServiceShape) {
  Service Svc({.Workers = 1});
  ASSERT_EQ(submitAndWait(Svc, helloJob()).State, JobState::Completed);
  std::string J = Svc.statsJson();
  EXPECT_NE(J.find("\"schema\":\"silverd-stats-v1\""), std::string::npos);
  EXPECT_NE(J.find("\"submitted\":1"), std::string::npos);
  EXPECT_NE(J.find("\"completed\":1"), std::string::npos);
  EXPECT_NE(J.find("\"prepare_cache\""), std::string::npos);
  EXPECT_NE(J.find("\"latency\""), std::string::npos);
  EXPECT_NE(J.find("\"isa\""), std::string::npos);
}

TEST(Service, InstrumentedWorkersMergeCounters) {
  ServiceOptions Opts;
  Opts.Workers = 2;
  Opts.Instrument = true;
  Service Svc(Opts);
  JobInfo A = submitAndWait(Svc, helloJob());
  JobInfo B = submitAndWait(Svc, helloJob());
  ASSERT_EQ(A.State, JobState::Completed);
  ASSERT_EQ(B.State, JobState::Completed);
  obs::Counters Merged = Svc.mergedCounters();
  EXPECT_EQ(Merged.Retired, A.Outcome.Behaviour.Instructions +
                                B.Outcome.Behaviour.Instructions);
  EXPECT_NE(Svc.statsJson().find("\"counters\""), std::string::npos);
}

TEST(Service, StreamOutputChunksAreContiguousAndComplete) {
  Service Svc({.Workers = 1});
  JobInfo Info = submitAndWait(Svc, wcJob(20));
  ASSERT_EQ(Info.State, JobState::Completed) << Info.Outcome.Error;
  const std::string &Full = Info.Outcome.Behaviour.StdoutData;
  ASSERT_FALSE(Full.empty());
  // Read the whole stream 4 bytes at a time: offsets must be contiguous
  // and the concatenation byte-identical to the job's stdout.
  std::string Got;
  uint64_t Offset = 0;
  unsigned Chunks = 0;
  while (true) {
    Result<Service::StreamChunk> C =
        Svc.streamOutput(Info.Id, Offset, /*WaitMs=*/1000, /*MaxBytes=*/4);
    ASSERT_TRUE(bool(C)) << C.error().str();
    EXPECT_EQ(C->Offset, Offset);
    EXPECT_LE(C->Data.size(), 4u);
    Got += C->Data;
    Offset += C->Data.size();
    if (C->Final) {
      EXPECT_EQ(C->State, JobState::Completed);
      break;
    }
    ASSERT_LT(++Chunks, 10'000u);
  }
  EXPECT_EQ(Got, Full);
}

TEST(Service, StreamOutputUnknownJobIsAnError) {
  Service Svc({.Workers = 0});
  EXPECT_FALSE(bool(Svc.streamOutput(424242, 0, 0)));
}

TEST(Service, StreamOutputOfPausedJobReportsPausedNotFinal) {
  Service Svc({.Workers = 1});
  JobSpec S = wcJob(200);
  S.SliceInstructions = 10'000;
  JobInfo Info = submitAndWait(Svc, S);
  ASSERT_EQ(Info.State, JobState::Paused) << Info.Outcome.Error;
  // Past-the-end offsets clamp; a paused job is not a finished stream
  // (resume may extend it), so Final stays false and the state tells
  // the caller why no more data is coming right now.
  Result<Service::StreamChunk> C =
      Svc.streamOutput(Info.Id, /*Offset=*/1u << 30, /*WaitMs=*/0);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_TRUE(C->Data.empty());
  EXPECT_FALSE(C->Final);
  EXPECT_EQ(C->State, JobState::Paused);
  ASSERT_TRUE(bool(Svc.cancel(Info.Id)));
}

TEST(Service, BlockedStreamWakesWhenTheJobPublishes) {
  Service Svc({.Workers = 1});
  JobSpec S = wcJob(20);
  S.LiveOutput = true;
  JobInfo Info = Svc.submit(S);
  ASSERT_EQ(Info.State, JobState::Queued);
  // Blocks until the worker publishes stdout (or the job settles) —
  // not a 60-second sleep.
  Result<Service::StreamChunk> C = Svc.streamOutput(Info.Id, 0, 60'000);
  ASSERT_TRUE(bool(C)) << C.error().str();
  std::optional<JobInfo> Done = Svc.waitSettled(Info.Id, 60'000);
  ASSERT_TRUE(Done.has_value());
  ASSERT_EQ(Done->State, JobState::Completed) << Done->Outcome.Error;
  EXPECT_FALSE(Done->Outcome.Behaviour.StdoutData.empty());
}

TEST(Service, QuotaRejectionSurfacesAsRejectedSubmission) {
  ServiceOptions Opts;
  Opts.Workers = 0;
  Opts.QueueDepth = 8;
  Opts.MaxClientShare = 0.25; // 2 slots per tenant
  Service Svc(Opts);
  JobSpec S = helloJob();
  S.ClientId = "greedy";
  EXPECT_EQ(Svc.submit(S).State, JobState::Queued);
  EXPECT_EQ(Svc.submit(S).State, JobState::Queued);
  JobInfo Third = Svc.submit(S);
  EXPECT_EQ(Third.State, JobState::Rejected);
  EXPECT_EQ(Third.Outcome.Error, "client quota exceeded");
  // Another tenant is unaffected.
  S.ClientId = "polite";
  EXPECT_EQ(Svc.submit(S).State, JobState::Queued);
}

TEST(Service, ConcurrentMixedSubmissionsAllComplete) {
  Service Svc({.Workers = 4, .QueueDepth = 64});
  std::vector<uint64_t> Ids;
  for (int I = 0; I != 12; ++I) {
    JobInfo Info = Svc.submit(I % 2 ? helloJob() : wcJob(20));
    ASSERT_EQ(Info.State, JobState::Queued);
    Ids.push_back(Info.Id);
  }
  std::string WcExpected = stack::wcSpec(stack::randomLines(20, 1));
  for (size_t I = 0; I != Ids.size(); ++I) {
    std::optional<JobInfo> Done = Svc.waitSettled(Ids[I], 120'000);
    ASSERT_TRUE(Done.has_value());
    ASSERT_EQ(Done->State, JobState::Completed) << Done->Outcome.Error;
    EXPECT_EQ(Done->Outcome.Behaviour.StdoutData,
              I % 2 ? "Hello, world!\n" : WcExpected);
  }
}

TEST(Service, HardwareJobsShareTheCoreDesign) {
  // Two workers run hello at the hardware levels at once, so their
  // sessions build and then step the one process-wide core design
  // (cpu::coreDesign()) concurrently.  Each job must match a sequential
  // run of the same engine, digest included.  The sequential runs come
  // last, so the workers are the design's first users.
  std::vector<stack::Engine> Engines = {stack::Engine::Rtl,
                                        stack::Engine::Verilog};
  if (stack::engineSupported(stack::Engine::VerilogCompiled))
    Engines.push_back(stack::Engine::VerilogCompiled);
  constexpr int JobsPerEngine = 3;

  Service Svc({.Workers = 2, .QueueDepth = 16});
  std::vector<std::pair<stack::Engine, uint64_t>> Ids;
  for (int I = 0; I != JobsPerEngine; ++I)
    for (stack::Engine E : Engines) {
      JobSpec S = helloJob();
      S.Level = stack::engineRow(E).L;
      S.Hdl = stack::engineRow(E).Hdl;
      JobInfo Info = Svc.submit(S);
      ASSERT_EQ(Info.State, JobState::Queued);
      Ids.emplace_back(E, Info.Id);
    }
  std::vector<JobInfo> Done;
  for (const auto &[E, Id] : Ids) {
    std::optional<JobInfo> Info = Svc.waitSettled(Id, 120'000);
    ASSERT_TRUE(Info.has_value());
    ASSERT_EQ(Info->State, JobState::Completed) << Info->Outcome.Error;
    Done.push_back(*Info);
  }

  for (stack::Engine E : Engines) {
    stack::RunSpec Spec;
    Spec.Source = stack::helloSource();
    Spec.CommandLine = {"hello"};
    Spec.Exec.Hdl = stack::engineRow(E).Hdl;
    Result<stack::Executor> X = stack::Executor::create(Spec);
    ASSERT_TRUE(X) << X.error().str();
    ASSERT_TRUE(X->begin(stack::engineRow(E).L));
    Result<stack::RunStatus> St = X->step(UINT64_MAX);
    ASSERT_TRUE(St && *St == stack::RunStatus::Completed);
    Result<stack::StateDigest> Digest = X->sessionState();
    ASSERT_TRUE(Digest);
    Result<stack::Outcome> Want = X->finish();
    ASSERT_TRUE(Want);
    for (size_t I = 0; I != Ids.size(); ++I) {
      if (Ids[I].first != E)
        continue;
      const JobOutcome &Got = Done[I].Outcome;
      SCOPED_TRACE(std::string(stack::engineName(E)) + " job " +
                   std::to_string(I));
      EXPECT_EQ(Got.Behaviour.StdoutData, Want->Behaviour.StdoutData);
      EXPECT_EQ(Got.Behaviour.ExitCode, Want->Behaviour.ExitCode);
      EXPECT_EQ(Got.Behaviour.Instructions, Want->Behaviour.Instructions);
      EXPECT_EQ(Got.Behaviour.Cycles, Want->Behaviour.Cycles);
      EXPECT_GT(Got.Behaviour.Cycles, 0u);
      ASSERT_TRUE(Got.HasDigest);
      EXPECT_TRUE(Got.Digest == *Digest);
    }
  }
}

} // namespace
