#include "exp/service.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/supervisor.hpp"

namespace eadt::exp {
namespace {

testbeds::Testbed tiny_xsede() { return testbeds::scaled(testbeds::xsede(), 64); }

proto::Dataset job_dataset(Bytes file, int count) {
  proto::Dataset ds;
  for (int i = 0; i < count; ++i) ds.files.push_back({file});
  return ds;
}

proto::SessionConfig fast_cfg() {
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  return cfg;
}

/// Every field of a RunResult as text, doubles in hex-float, so two runs
/// compare byte for byte. `sim_counters` is left out: it counts the events of
/// the simulation that hosted the run (a schedule's own ticker and
/// submission events included), not anything the transfer did.
std::string run_result_dump(const proto::RunResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << "duration " << r.duration << "\nbytes " << r.bytes << "\nenergy "
     << r.end_system_energy << "\nnetwork " << r.network_energy << "\nconcurrency "
     << r.final_concurrency << "\ncompleted " << r.completed << "\nerror " << r.error
     << "\ncheckpoint " << r.checkpoint.has_value() << '\n';
  const proto::FaultStats& f = r.faults;
  os << "faults " << f.retries << ' ' << f.channel_drops << ' ' << f.checksum_failures
     << ' ' << f.server_outages << ' ' << f.quarantined_channels << ' ' << f.wasted_bytes
     << ' ' << f.wasted_joules << ' ' << f.channel_downtime << ' ' << f.server_downtime
     << '\n';
  for (const proto::SampleStats& s : r.samples) {
    os << "sample " << s.window_start << ' ' << s.window_end << ' ' << s.bytes << ' '
       << s.end_system_energy << ' ' << s.active_channels << ' ' << s.wasted_bytes << ' '
       << s.down_channels << '\n';
  }
  for (const auto* side : {&r.source_servers, &r.destination_servers}) {
    for (const proto::ServerEnergy& e : *side) {
      os << "server " << e.name << ' ' << e.joules << ' ' << e.active_time << '\n';
    }
  }
  return os.str();
}

TEST(Service, PolicyNames) {
  EXPECT_STREQ(to_string(JobPolicy::kDeadline), "deadline");
  EXPECT_STREQ(to_string(JobPolicy::kGreen), "green");
  EXPECT_STREQ(to_string(JobPolicy::kBalanced), "balanced");
  EXPECT_STREQ(to_string(JobPolicy::kSla), "sla");
  EXPECT_STREQ(to_string(JobPolicy::kEnergyBudget), "energy-budget");
}

TEST(Service, MeasuresReferenceRateOnce) {
  TransferService service(tiny_xsede(), 0.0, fast_cfg());
  EXPECT_GT(service.reference_rate(), gbps(1.0));
  // An explicit reference skips the measurement.
  TransferService fixed(tiny_xsede(), gbps(5.0), fast_cfg());
  EXPECT_DOUBLE_EQ(fixed.reference_rate(), gbps(5.0));
}

TEST(Service, FifoTimelineIsContiguousAndTotalsAdd) {
  TransferService service(tiny_xsede(), gbps(7.0), fast_cfg());
  std::vector<TransferJob> jobs;
  jobs.push_back({"a", job_dataset(100 * kMB, 8), JobPolicy::kDeadline, 0, 0, 8});
  jobs.push_back({"b", job_dataset(100 * kMB, 8), JobPolicy::kGreen, 0, 0, 8});
  const auto report = service.run_queue(jobs, QueueOrder::kFifo);

  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(report.jobs[0].queued_at, 0.0);
  EXPECT_DOUBLE_EQ(report.jobs[1].queued_at, report.jobs[0].finished_at);
  EXPECT_DOUBLE_EQ(report.makespan, report.jobs[1].finished_at);
  EXPECT_EQ(report.total_bytes, 2u * 8u * 100 * kMB);
  EXPECT_NEAR(report.total_energy,
              report.jobs[0].result.end_system_energy +
                  report.jobs[1].result.end_system_energy,
              1e-9);
  EXPECT_EQ(report.jobs[0].name, "a");  // FIFO keeps order
}

TEST(Service, GreenJobUsesLessEnergyThanDeadlineJob) {
  TransferService service(tiny_xsede(), gbps(7.0), fast_cfg());
  const auto t = tiny_xsede();
  const auto ds = t.make_dataset();
  std::vector<TransferJob> jobs;
  jobs.push_back({"fast", ds, JobPolicy::kDeadline, 0, 0, 12});
  jobs.push_back({"green", ds, JobPolicy::kGreen, 0, 0, 12});
  const auto report = service.run_queue(jobs);
  EXPECT_LT(report.jobs[1].result.end_system_energy,
            report.jobs[0].result.end_system_energy);
  EXPECT_GE(report.jobs[0].throughput_mbps(), report.jobs[1].throughput_mbps());
}

TEST(Service, ShortestFirstReordersByBytes) {
  TransferService service(tiny_xsede(), gbps(7.0), fast_cfg());
  std::vector<TransferJob> jobs;
  jobs.push_back({"big", job_dataset(400 * kMB, 4), JobPolicy::kDeadline, 0, 0, 8});
  jobs.push_back({"small", job_dataset(50 * kMB, 4), JobPolicy::kDeadline, 0, 0, 8});
  const auto report = service.run_queue(jobs, QueueOrder::kShortestFirst);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].name, "small");
  EXPECT_EQ(report.jobs[1].name, "big");
}

TEST(Service, GreenFirstFrontloadsGreenJobs) {
  TransferService service(tiny_xsede(), gbps(7.0), fast_cfg());
  std::vector<TransferJob> jobs;
  jobs.push_back({"d1", job_dataset(50 * kMB, 4), JobPolicy::kDeadline, 0, 0, 8});
  jobs.push_back({"g1", job_dataset(50 * kMB, 4), JobPolicy::kGreen, 0, 0, 8});
  jobs.push_back({"d2", job_dataset(50 * kMB, 4), JobPolicy::kDeadline, 0, 0, 8});
  jobs.push_back({"g2", job_dataset(50 * kMB, 4), JobPolicy::kGreen, 0, 0, 8});
  const auto report = service.run_queue(jobs, QueueOrder::kGreenFirst);
  EXPECT_EQ(report.jobs[0].name, "g1");
  EXPECT_EQ(report.jobs[1].name, "g2");  // stable within class
  EXPECT_EQ(report.jobs[2].name, "d1");
}

TEST(Service, SlaJobIsScoredAgainstTheReference) {
  const auto t = tiny_xsede();
  TransferService service(t, 0.0, fast_cfg());
  std::vector<TransferJob> jobs;
  TransferJob sla;
  sla.name = "sla70";
  sla.dataset = t.make_dataset();
  sla.policy = JobPolicy::kSla;
  sla.sla_percent = 70.0;
  sla.max_channels = 12;
  jobs.push_back(std::move(sla));
  const auto report = service.run_queue(jobs);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_TRUE(report.jobs[0].result.completed);
  EXPECT_TRUE(report.jobs[0].sla_met);
}

TEST(Service, EnergyBudgetJobRespectsItsCap) {
  const auto t = tiny_xsede();
  TransferService service(t, gbps(7.0), fast_cfg());
  const auto ds = t.make_dataset();

  // Establish a generous but binding cap from a deadline run.
  std::vector<TransferJob> probe;
  probe.push_back({"probe", ds, JobPolicy::kDeadline, 0, 0, 12});
  const auto probe_report = service.run_queue(probe);
  const Joules cap = probe_report.jobs[0].result.end_system_energy * 0.9;

  std::vector<TransferJob> jobs;
  TransferJob budget;
  budget.name = "capped";
  budget.dataset = ds;
  budget.policy = JobPolicy::kEnergyBudget;
  budget.energy_budget = cap;
  budget.max_channels = 12;
  jobs.push_back(std::move(budget));
  const auto report = service.run_queue(jobs);
  EXPECT_TRUE(report.jobs[0].result.completed);
  // The service dataset is tiny (a couple of sampling windows), so the
  // controller only gets one or two corrections in; 15 % covers that.
  EXPECT_LT(report.jobs[0].result.end_system_energy, cap * 1.15);
}

TEST(Service, DeterministicReports) {
  const auto t = tiny_xsede();
  std::vector<TransferJob> jobs;
  jobs.push_back({"x", t.make_dataset(), JobPolicy::kBalanced, 0, 0, 8});
  TransferService s1(t, gbps(7.0), fast_cfg());
  TransferService s2(t, gbps(7.0), fast_cfg());
  const auto r1 = s1.run_queue(jobs);
  const auto r2 = s2.run_queue(jobs);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  EXPECT_DOUBLE_EQ(r1.total_energy, r2.total_energy);
}

TEST(Service, UnsupervisedJobIsTheBareEngineRunByteForByte) {
  // An unsupervised job is one leg of the engine: the plan and controller
  // make_operating_point maps its policy to, run once on a fresh simulation.
  // Every caller that never calls set_supervisor, and every calibration run
  // built on one (the benches' T), rests on this equality.
  const JobPolicy policies[] = {JobPolicy::kDeadline, JobPolicy::kGreen,
                                JobPolicy::kBalanced, JobPolicy::kSla,
                                JobPolicy::kEnergyBudget};
  for (auto tb : {testbeds::xsede(), testbeds::futuregrid(), testbeds::didclab()}) {
    tb = testbeds::scaled(tb, 4);
    TransferService service(tb, 0.0, fast_cfg());
    for (const JobPolicy policy : policies) {
      SCOPED_TRACE(tb.env.name + " " + to_string(policy));
      const TransferJob job{"pin", tb.make_dataset(), policy, 60.0, 5000.0,
                            tb.default_max_channels};
      const auto report = service.run_queue({job});
      ASSERT_EQ(report.jobs.size(), 1u);

      OperatingPoint op = make_operating_point(
          tb.env, job.dataset, job.policy, job.max_channels, job.sla_percent,
          job.energy_budget, service.reference_rate(), nullptr);
      proto::TransferSession bare(tb.env, job.dataset, std::move(op.plan), fast_cfg());
      const auto expected = bare.run(op.controller.get());

      EXPECT_TRUE(expected.completed);
      EXPECT_EQ(run_result_dump(report.jobs[0].result), run_result_dump(expected));
    }
  }
}

TEST(Service, ResumedLegIsTheBareEngineResumeUpToClockRounding) {
  // A supervised job's second leg is the engine's own resumed run from the
  // first leg's journal: every byte, joule and channel count equal, and
  // every time equal up to the rounding of the schedule's clock (the leg
  // starts mid-schedule, not at 0). A leg that worked one tick before its
  // clock started would finish a tick early.
  const JobPolicy policies[] = {JobPolicy::kDeadline, JobPolicy::kGreen,
                                JobPolicy::kBalanced, JobPolicy::kSla,
                                JobPolicy::kEnergyBudget};
  for (auto tb : {testbeds::xsede(), testbeds::futuregrid(), testbeds::didclab()}) {
    tb = testbeds::scaled(tb, 4);
    TransferService plain(tb, 0.0, fast_cfg());
    for (const JobPolicy policy : policies) {
      SCOPED_TRACE(tb.env.name + " " + to_string(policy));
      const TransferJob job{"legs", tb.make_dataset(), policy, 60.0, 5000.0,
                            tb.default_max_channels};
      SupervisorPolicy sup;
      sup.attempt_deadline = 0.7 * plain.run_queue({job}).jobs[0].result.duration;
      sup.max_attempts = 2;
      sup.degrade_after = 100;  // the second leg keeps the first's operating point
      TransferService service(tb, plain.reference_rate(), fast_cfg());
      service.set_supervisor(sup);
      const auto out = service.run_queue({job}).jobs[0];
      ASSERT_EQ(out.attempts, 2);

      proto::SessionConfig leg_cfg = fast_cfg();
      leg_cfg.max_sim_time = sup.attempt_deadline;
      const auto leg = [&] {
        return make_operating_point(tb.env, job.dataset, job.policy, job.max_channels,
                                    job.sla_percent, job.energy_budget,
                                    plain.reference_rate(), nullptr);
      };
      OperatingPoint op1 = leg();
      proto::TransferSession first(tb.env, job.dataset, std::move(op1.plan), leg_cfg);
      const auto cut = first.run(op1.controller.get());
      ASSERT_TRUE(cut.checkpoint.has_value());
      OperatingPoint op2 = leg();
      proto::TransferSession second(tb.env, job.dataset, std::move(op2.plan), leg_cfg);
      ASSERT_TRUE(second.resume_from(*cut.checkpoint));
      const auto expected = second.run(op2.controller.get());

      const proto::RunResult& r = out.result;
      ASSERT_TRUE(expected.completed);
      ASSERT_TRUE(r.completed);
      EXPECT_NEAR(r.duration, expected.duration, 1e-9);
      EXPECT_EQ(r.bytes, expected.bytes);
      EXPECT_EQ(r.end_system_energy, expected.end_system_energy);
      EXPECT_EQ(r.network_energy, expected.network_energy);
      EXPECT_EQ(r.final_concurrency, expected.final_concurrency);
      ASSERT_EQ(r.samples.size(), expected.samples.size());
      for (std::size_t i = 0; i < r.samples.size(); ++i) {
        EXPECT_NEAR(r.samples[i].window_start, expected.samples[i].window_start, 1e-9);
        EXPECT_NEAR(r.samples[i].window_end, expected.samples[i].window_end, 1e-9);
        EXPECT_EQ(r.samples[i].bytes, expected.samples[i].bytes);
        EXPECT_EQ(r.samples[i].end_system_energy, expected.samples[i].end_system_energy);
        EXPECT_EQ(r.samples[i].active_channels, expected.samples[i].active_channels);
      }
    }
  }
}

TEST(Service, AbortedJobsAreExcludedFromAggregateRates) {
  // A time-guard abort used to be folded into the report as a success, its
  // clock-limited "rate" dragging the aggregate down. It must be counted as
  // a failure and kept out of the reference-rate math.
  const auto t = tiny_xsede();
  auto cfg = fast_cfg();
  cfg.max_sim_time = 1.5;  // enough for 4 files, nowhere near enough for 64
  TransferService service(t, gbps(7.0), cfg);
  std::vector<TransferJob> jobs;
  jobs.push_back({"small", job_dataset(50 * kMB, 4), JobPolicy::kDeadline, 0, 0, 8});
  jobs.push_back({"huge", job_dataset(100 * kMB, 64), JobPolicy::kDeadline, 0, 0, 8});
  const auto report = service.run_queue(jobs);

  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_FALSE(report.jobs[0].failed);
  EXPECT_TRUE(report.jobs[1].failed);
  EXPECT_FALSE(report.jobs[1].sla_met);
  EXPECT_EQ(report.failed_jobs, 1);
  // The mean rate fraction reflects the completed job alone.
  const double expected =
      report.jobs[0].result.avg_throughput() / report.reference_rate;
  EXPECT_DOUBLE_EQ(report.mean_rate_fraction, expected);
  EXPECT_GT(report.mean_rate_fraction, 0.0);
}

}  // namespace
}  // namespace eadt::exp
