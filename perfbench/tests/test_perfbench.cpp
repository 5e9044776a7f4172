// Tests of the benchmark itself: span self-time arithmetic, the span store,
// the result line, the seed lists, and proxy transparency on a small
// size of each workload.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "job.h"
#include "metrics.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Tracer, SelfTimeIsSpanMinusDirectChildren) {
  Tracer t;
  t.open(SpanName::Run, 0);
  t.open(SpanName::Step, 10);
  t.open(SpanName::TaskMessage, 12);
  t.open(SpanName::PupPack, 13);  // grandchild of the step
  t.close(14);
  t.close(15);
  t.open(SpanName::TaskResume, 16);
  t.close(20);
  t.close(30);
  t.open(SpanName::Step, 31);
  t.close(33);
  t.close(40);
  EXPECT_EQ(t.depth(), 0u);

  const SpanTotals& step = t.totals(SpanName::Step);
  EXPECT_EQ(step.calls, 2u);
  EXPECT_EQ(step.total_ns, 22);
  // 20 ns step minus its children (3 + 4); the grandchild is already inside
  // the on_message span, so it is not subtracted twice. Plus the 2 ns step.
  EXPECT_EQ(step.self_ns, 13 + 2);
  const SpanTotals& msg = t.totals(SpanName::TaskMessage);
  EXPECT_EQ(msg.total_ns, 3);
  EXPECT_EQ(msg.self_ns, 2);
  const SpanTotals& run = t.totals(SpanName::Run);
  EXPECT_EQ(run.total_ns, 40);
  EXPECT_EQ(run.self_ns, 40 - 22);
}

TEST(Tracer, StoredSpansKeepParentsAndJobIds) {
  Tracer t;
  t.set_job(7);
  t.open(SpanName::Job, 100);
  t.open(SpanName::Step, 110);
  t.close(120);
  t.close(130);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].job, 7u);
  EXPECT_EQ(t.spans()[1].end_ns, 120);
  std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rt.step\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
}

TEST(Tracer, StoresEveryJobLevelSpanButCapsDetailSpansPerJob) {
  Tracer t;
  const std::size_t cap = Tracer::kMaxDetailSpansPerJob;
  for (std::uint32_t job = 0; job < 2; ++job) {
    t.set_job(job);
    t.open(SpanName::Job, 0);
    t.open(SpanName::Run, 0);
    for (std::size_t i = 0; i < cap + 5; ++i) {
      t.open(SpanName::Step, 1);
      t.close(2);
    }
    t.close(3);
    t.open(SpanName::Drain, 3);
    t.close(4);
    t.close(5);
  }
  EXPECT_EQ(t.dropped(), 10u);
  ASSERT_EQ(t.spans().size(), 2 * (cap + 3));
  std::size_t job_level = 0;
  for (const StoredSpan& s : t.spans()) {
    if (s.name != SpanName::Step) ++job_level;
    if (s.parent >= 0) {
      EXPECT_LT(static_cast<std::size_t>(s.parent), t.spans().size());
      EXPECT_EQ(t.spans()[static_cast<std::size_t>(s.parent)].job, s.job);
    }
  }
  EXPECT_EQ(job_level, 6u);  // job, run and drain of both jobs
  EXPECT_EQ(t.spans().back().name, SpanName::Drain);
  EXPECT_EQ(t.spans().back().job, 1u);
}

TEST(Tracer, ResetTotalsKeepsStoredSpans) {
  Tracer t;
  t.open(SpanName::Step, 0);
  t.close(5);
  t.reset_totals();
  EXPECT_EQ(t.totals(SpanName::Step).calls, 0u);
  EXPECT_EQ(t.spans().size(), 1u);
}

TEST(Metrics, ResultLineCarriesEveryValueWithAllItsDigits) {
  MetricValues v;
  v["job_wall_s"] = 0.1234567890123456789;
  v["rt.engine.events"] = 620325.0;
  std::string line = result_json(true, 3, 1, v);
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
            "\"values\": {\"job_wall_s\": 0.12345678901234568, "
            "\"rt.engine.events\": 620325}}");
}

TEST(Metrics, ResultLineRejectsValuesJsonCannotHold) {
  MetricValues v;
  v["setup_s"] = std::nan("");
  EXPECT_THROW(result_json(true, 1, 0, v), std::logic_error);
}

TEST(Metrics, Median) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Workloads, SeedListsAreFixedPerSeed) {
  for (const std::string& name : workload_names()) {
    Workload w = make_workload(name);
    EXPECT_EQ(job_seeds(w, 5), job_seeds(w, 5)) << name;
    EXPECT_NE(job_seeds(w, 5), job_seeds(w, 6)) << name;
    EXPECT_EQ(job_seeds(w, 5).size(), static_cast<std::size_t>(w.jobs_per_pass));
  }
  EXPECT_THROW(make_workload("nope"), std::invalid_argument);
}

/// The proxy tasks and the external step loop leave the simulation
/// unchanged: a traced job ends exactly like the untraced job of the same
/// seed, and (where the workload has no faults) with the reference answer.
class Transparency : public ::testing::TestWithParam<std::string> {};

TEST_P(Transparency, TracedJobMatchesUntracedJob) {
  Workload w = make_workload(GetParam(), Scale::Small);
  JobResult ref = run_job(fault_free(w), kReferenceSeed, 0.0, nullptr);
  ASSERT_TRUE(ref.summary.complete);
  for (std::uint64_t seed : job_seeds(w, 11)) {
    Tracer tracer;
    JobResult plain = run_job(w, seed, ref.summary.finish_time, nullptr);
    JobResult traced = run_job(w, seed, ref.summary.finish_time, &tracer);
    EXPECT_EQ(same_outcome(plain, traced), "") << "seed " << seed;
    EXPECT_EQ(tracer.depth(), 0u);
    EXPECT_GT(traced.trace.on_message_calls, 0u);
    EXPECT_GT(traced.trace.pack_calls, 0u);
    EXPECT_GT(traced.trace.step_total_s, 0.0);
    EXPECT_LE(traced.trace.step_total_s, traced.run_s);
    if (w.must_complete) {
      EXPECT_TRUE(job_ok(plain, ref.digest));
    }
    if (plain.summary.complete) {
      EXPECT_EQ(plain.digest, ref.digest);
      EXPECT_TRUE(traced.trace.replayed);
      EXPECT_GT(traced.trace.replay.crc32c_chunks_mbps, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Transparency,
                         ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace perfbench
