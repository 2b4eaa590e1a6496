#include "simulation/session_service.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "experiment/scenario.hpp"
#include "simulation/protocol.hpp"
#include "session_reference.hpp"

namespace muerp::sim {
namespace {

net::QuantumNetwork service_network(std::uint64_t seed = 11,
                                    int qubits_per_switch = 6,
                                    double attenuation = 2e-5) {
  experiment::Scenario s;
  s.switch_count = 30;
  s.user_count = 8;
  s.qubits_per_switch = qubits_per_switch;
  s.attenuation = attenuation;
  s.seed = seed;
  return experiment::instantiate(s, 0).network;
}

/// Two qubits per switch (one relay each) and lossy fibers, so sessions
/// hold their switches for many slots and arrivals collide on them.
net::QuantumNetwork tight_network(std::uint64_t seed = 11) {
  return service_network(seed, /*qubits_per_switch=*/2,
                         /*attenuation=*/1e-4);
}

ProtocolParams light_params() {
  ProtocolParams params;
  params.horizon_slots = 4000;
  params.arrival_prob_per_slot = 0.05;
  return params;
}

/// Steps a service over a full horizon and returns its metrics plus every
/// slot report for invariants checking.
ProtocolMetrics run_stepped(SessionService& service, std::uint64_t slots,
                            std::vector<SlotReport>* reports = nullptr) {
  for (std::uint64_t i = 0; i < slots; ++i) {
    const SlotReport report = service.step();
    if (reports != nullptr) reports->push_back(report);
  }
  return service.metrics();
}

TEST(SessionService, SteppedRunMatchesProtocolSimulator) {
  const auto net = service_network();
  const ProtocolParams params = light_params();

  support::Rng sim_rng(7);
  const ProtocolMetrics expected =
      ProtocolSimulator(net, params).run(sim_rng);

  support::Rng svc_rng(7);
  SessionService service(net, SessionServiceConfig{params, "", {}}, svc_rng);
  const ProtocolMetrics actual = run_stepped(service, params.horizon_slots);

  EXPECT_EQ(actual.sessions_arrived, expected.sessions_arrived);
  EXPECT_EQ(actual.sessions_admitted, expected.sessions_admitted);
  EXPECT_EQ(actual.sessions_rejected, expected.sessions_rejected);
  EXPECT_EQ(actual.sessions_completed, expected.sessions_completed);
  EXPECT_EQ(actual.sessions_timed_out, expected.sessions_timed_out);
  EXPECT_EQ(actual.sessions_in_flight, expected.sessions_in_flight);
  EXPECT_DOUBLE_EQ(actual.mean_completion_slots,
                   expected.mean_completion_slots);
  EXPECT_DOUBLE_EQ(actual.mean_qubit_utilization,
                   expected.mean_qubit_utilization);
}

TEST(SessionService, SlotReportsSumToMetrics) {
  const auto net = service_network();
  const ProtocolParams params = light_params();
  support::Rng rng(3);
  SessionService service(net, SessionServiceConfig{params, "", {}}, rng);
  std::vector<SlotReport> reports;
  const ProtocolMetrics m =
      run_stepped(service, params.horizon_slots, &reports);

  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  for (const SlotReport& r : reports) {
    arrived += r.arrived ? 1 : 0;
    admitted += r.admitted ? 1 : 0;
    completed += r.completed;
    timed_out += r.timed_out;
    EXPECT_GE(r.qubit_utilization, 0.0);
    EXPECT_LE(r.qubit_utilization, 1.0);
    if (r.admitted) {
      EXPECT_GT(r.admitted_rate, 0.0);
    }
  }
  EXPECT_EQ(arrived, m.sessions_arrived);
  EXPECT_EQ(admitted, m.sessions_admitted);
  EXPECT_EQ(completed, m.sessions_completed);
  EXPECT_EQ(timed_out, m.sessions_timed_out);
  EXPECT_EQ(reports.back().slot, params.horizon_slots);
  EXPECT_EQ(service.slot(), params.horizon_slots);
  EXPECT_EQ(m.sessions_in_flight, service.active_sessions());
}

TEST(SessionService, RegistryAlgorithmAccountingIsConsistent) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  SessionServiceConfig config;
  config.params = params;
  config.algorithm = "alg3";
  config.router_options.pin_alg2_sufficient = false;
  support::Rng rng(5);
  SessionService service(net, config, rng);
  const ProtocolMetrics m = run_stepped(service, params.horizon_slots);

  EXPECT_GT(m.sessions_arrived, 0u);
  EXPECT_EQ(m.sessions_arrived, m.sessions_admitted + m.sessions_rejected);
  EXPECT_EQ(m.sessions_admitted,
            m.sessions_completed + m.sessions_timed_out + m.sessions_in_flight);
  EXPECT_GE(m.mean_qubit_utilization, 0.0);
  EXPECT_LE(m.mean_qubit_utilization, 1.0);
}

TEST(SessionService, RegistryAlgorithmNeverOversubscribesCapacity) {
  const auto net = service_network(17);
  ProtocolParams params;
  params.horizon_slots = 3000;
  params.arrival_prob_per_slot = 0.5;  // heavy load to stress admission
  params.session_timeout_slots = 800;
  SessionServiceConfig config;
  config.params = params;
  config.algorithm = "eqcast";  // capacity-oblivious baseline
  config.router_options.pin_alg2_sufficient = false;
  support::Rng rng(9);
  SessionService service(net, config, rng);
  for (std::uint64_t i = 0; i < params.horizon_slots; ++i) {
    service.step();
    // The residual-capacity guard must keep the pledge fraction physical
    // after every single slot, even for a router that ignores capacity.
    ASSERT_LE(service.qubit_utilization(), 1.0 + 1e-12) << "slot " << i;
  }
}

#if MUERP_TELEMETRY_ENABLED
TEST(SessionService, CapacityGuardRejectionsKeepTheirReason) {
  // Algorithm 2 pinned at its sufficient condition routes on a copy with
  // every switch boosted to 2|U| qubits, so on a loaded fabric it returns
  // trees the free qubits cannot host. Single arrivals and bursts both go
  // through the batch intake, and both must file those refusals as
  // capacity_guard.
  using support::telemetry::RejectReason;
  using support::telemetry::SessionFilter;
  using support::telemetry::SessionRecorder;
  using support::telemetry::SessionState;
  const support::telemetry::Counter guard_counter(
      "muerpd/rejects/capacity_guard");
  for (const std::size_t burst : {std::size_t{1}, std::size_t{3}}) {
    const auto net = tight_network(17);
    ProtocolParams params;
    params.arrival_prob_per_slot = 0.5;
    SessionRecorder recorder({.capacity = 1 << 16});
    SessionServiceConfig config;
    config.params = params;
    config.algorithm = "alg2";
    config.router_options.pin_alg2_sufficient = true;
    config.arrival_burst = burst;
    config.recorder = &recorder;
    support::Rng rng(9);
    SessionService service(net, config, rng);

    const std::uint64_t before =
        support::telemetry::counter_thread_value(guard_counter.id());
    run_stepped(service, 1500);
    const std::uint64_t raised =
        support::telemetry::counter_thread_value(guard_counter.id()) - before;

    SessionFilter rejected;
    rejected.state = SessionState::kRejected;
    std::uint64_t guarded = 0;
    for (const auto& record : recorder.records(rejected)) {
      if (record.reject_reason == RejectReason::kCapacityGuard) ++guarded;
    }
    EXPECT_GT(raised, 0u) << "burst " << burst;
    EXPECT_EQ(guarded, raised) << "burst " << burst;
  }
}
#endif  // MUERP_TELEMETRY_ENABLED

TEST(SessionService, UnknownAlgorithmThrows) {
  const auto net = service_network();
  SessionServiceConfig config;
  config.algorithm = "definitely-not-a-router";
  support::Rng rng(1);
  EXPECT_THROW(SessionService(net, config, rng), std::exception);
}

TEST(SessionService, ZeroArrivalStaysIdle) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.arrival_prob_per_slot = 0.0;
  support::Rng rng(2);
  SessionService service(net, SessionServiceConfig{params, "", {}}, rng);
  const ProtocolMetrics m = run_stepped(service, 500);
  EXPECT_EQ(m.sessions_arrived, 0u);
  EXPECT_EQ(service.active_sessions(), 0u);
  EXPECT_DOUBLE_EQ(service.qubit_utilization(), 0.0);
}

TEST(SessionService, DisablingArrivalsDrainsTheServiceForShutdown) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.arrival_prob_per_slot = 0.3;  // keep sessions in flight
  support::Rng rng(6);
  SessionService service(net, SessionServiceConfig{params, "", {}}, rng);
  run_stepped(service, 500);
  EXPECT_TRUE(service.arrivals_enabled());

  service.set_arrivals_enabled(false);
  EXPECT_FALSE(service.arrivals_enabled());
  const std::uint64_t arrived_at_stop = service.metrics().sessions_arrived;
  // Every admitted session either completes or times out within the
  // timeout horizon once the arrival process is frozen.
  run_stepped(service, params.session_timeout_slots + 1);
  EXPECT_EQ(service.metrics().sessions_arrived, arrived_at_stop);
  EXPECT_EQ(service.active_sessions(), 0u);

  service.set_arrivals_enabled(true);
  const ProtocolMetrics after = run_stepped(service, 500);
  EXPECT_GT(after.sessions_arrived, arrived_at_stop);
}

void expect_metrics_identical(const ProtocolMetrics& a,
                              const ProtocolMetrics& b) {
  EXPECT_EQ(a.sessions_arrived, b.sessions_arrived);
  EXPECT_EQ(a.sessions_admitted, b.sessions_admitted);
  EXPECT_EQ(a.sessions_rejected, b.sessions_rejected);
  EXPECT_EQ(a.sessions_completed, b.sessions_completed);
  EXPECT_EQ(a.sessions_timed_out, b.sessions_timed_out);
  EXPECT_EQ(a.sessions_in_flight, b.sessions_in_flight);
  EXPECT_EQ(a.mean_completion_slots, b.mean_completion_slots);  // bitwise
  EXPECT_EQ(a.mean_qubit_utilization, b.mean_qubit_utilization);
}

/// Every arrival is admitted through the routing kernel as a batch of one.
/// Steps the service in lockstep with the test-side per-arrival loop:
/// per-slot reports, metrics and the continuing Rng stream must agree bit
/// for bit — one extra or missing draw would derail the trajectory within
/// a few slots.
void expect_lockstep_with_reference(const char* algorithm) {
  const auto net = tight_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 2000;
  params.arrival_prob_per_slot = 0.3;
  SessionServiceConfig config{params, algorithm, {}};
  config.router_options.pin_alg2_sufficient = false;

  support::Rng service_rng(29);
  support::Rng reference_rng(29);
  SessionService service(net, config, service_rng);
  reference::ReferenceSessionLoop reference(
      net, params, algorithm, config.router_options, reference_rng);
  for (std::uint64_t i = 0; i < params.horizon_slots; ++i) {
    ASSERT_TRUE(service.step() == reference.step())
        << "'" << algorithm << "' slot " << i;
  }
  const ProtocolMetrics m = service.metrics();
  expect_metrics_identical(m, reference.metrics());
  EXPECT_EQ(service_rng.next(), reference_rng.next()) << algorithm;
  // Both outcomes occur, so the rollback / guard paths are exercised.
  EXPECT_GT(m.sessions_admitted, 0u) << algorithm;
  EXPECT_GT(m.sessions_rejected, 0u) << algorithm;
}

TEST(SessionService, BatchSingleArrivalsBitIdenticalToHistoricalPath) {
  // Built-in admission against the historical per-arrival path:
  // prim_based_shared on the live capacities, rolled back on failure.
  expect_lockstep_with_reference("");
}

TEST(SessionService, CachedResidualViewMatchesRebuildOracle) {
  // Registry routers on the cached residual view against a residual network
  // rebuilt from scratch every arrival, then route_tree, the capacity guard
  // and commit.
  for (const char* algorithm : {"alg3", "eqcast", "alg4ls"}) {
    SCOPED_TRACE(algorithm);
    expect_lockstep_with_reference(algorithm);
  }
}

TEST(SessionService, BurstIntakeAccountingStaysConsistent) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 2000;
  params.arrival_prob_per_slot = 0.3;
  SessionServiceConfig config{params, "", {}};
  config.arrival_burst = 4;
  support::Rng rng(19);
  SessionService service(net, config, rng);

  std::vector<SlotReport> reports;
  const ProtocolMetrics m =
      run_stepped(service, params.horizon_slots, &reports);

  std::uint64_t arrivals = 0;
  std::uint64_t admissions = 0;
  for (const SlotReport& r : reports) {
    EXPECT_LE(r.arrivals, config.arrival_burst);
    EXPECT_LE(r.admissions, r.arrivals);
    EXPECT_EQ(r.arrived, r.arrivals > 0);
    EXPECT_EQ(r.admitted, r.admissions > 0);
    if (r.admitted) {
      EXPECT_GT(r.admitted_rate, 0.0);
    }
    EXPECT_GE(r.qubit_utilization, 0.0);
    EXPECT_LE(r.qubit_utilization, 1.0);
    arrivals += r.arrivals;
    admissions += r.admissions;
  }
  EXPECT_GT(m.sessions_arrived, 0u);
  EXPECT_EQ(arrivals, m.sessions_arrived);
  EXPECT_EQ(admissions, m.sessions_admitted);
  EXPECT_EQ(m.sessions_arrived, m.sessions_admitted + m.sessions_rejected);
  EXPECT_EQ(m.sessions_admitted,
            m.sessions_completed + m.sessions_timed_out + m.sessions_in_flight);
}

TEST(SessionService, BurstIntakeWorksAcrossPoliciesAndRouters) {
  // Every (policy, router) combination the service supports stays
  // physical under heavy burst load: no oversubscription, consistent
  // accounting. fair-share is restricted to the batch-native kernels.
  struct Case {
    const char* algorithm;
    routing::BatchPolicy policy;
  };
  const Case cases[] = {
      {"", routing::BatchPolicy::kFairShare},
      {"", routing::BatchPolicy::kGreedy},
      {"alg4", routing::BatchPolicy::kFairShare},
      {"alg3", routing::BatchPolicy::kGivenOrder},
      {"eqcast", routing::BatchPolicy::kGreedy},
      {"eqcast", routing::BatchPolicy::kSmallestFirst},
  };
  for (const Case& c : cases) {
    const auto net = service_network(17);
    ProtocolParams params;
    params.horizon_slots = 600;
    params.arrival_prob_per_slot = 0.5;
    params.session_timeout_slots = 300;
    SessionServiceConfig config;
    config.params = params;
    config.algorithm = c.algorithm;
    config.router_options.pin_alg2_sufficient = false;
    config.arrival_burst = 3;
    config.batch_policy = c.policy;
    support::Rng rng(23);
    SessionService service(net, config, rng);
    for (std::uint64_t i = 0; i < params.horizon_slots; ++i) {
      service.step();
      ASSERT_LE(service.qubit_utilization(), 1.0 + 1e-12)
          << c.algorithm << "/" << routing::batch_policy_name(c.policy)
          << " slot " << i;
    }
    const ProtocolMetrics m = service.metrics();
    EXPECT_GT(m.sessions_arrived, 0u)
        << c.algorithm << "/" << routing::batch_policy_name(c.policy);
    EXPECT_EQ(m.sessions_arrived, m.sessions_admitted + m.sessions_rejected);
  }
}

TEST(SessionService, BurstFairShareNeedsBatchNativeKernel) {
  const auto net = service_network();
  SessionServiceConfig config;
  config.params = light_params();
  config.arrival_burst = 2;
  config.batch_policy = routing::BatchPolicy::kFairShare;
  config.algorithm = "alg3";
  config.router_options.pin_alg2_sufficient = false;
  support::Rng rng(1);
  EXPECT_THROW(SessionService(net, config, rng), std::invalid_argument);

  config.algorithm = "alg4";
  support::Rng rng2(1);
  EXPECT_NO_THROW(SessionService(net, config, rng2));
  config.algorithm = "";
  support::Rng rng3(1);
  EXPECT_NO_THROW(SessionService(net, config, rng3));
}

TEST(SessionService, AdmittedRateSumSeesEveryAdmissionInABurst) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 1500;
  params.arrival_prob_per_slot = 0.5;
  SessionServiceConfig config{params, "", {}};
  config.arrival_burst = 4;
  support::Rng rng(31);
  SessionService service(net, config, rng);

  bool saw_multi_admission_slot = false;
  for (std::uint64_t i = 0; i < params.horizon_slots; ++i) {
    const SlotReport r = service.step();
    if (r.admissions == 0) {
      EXPECT_EQ(r.admitted_rate_sum, 0.0);
      continue;
    }
    // admitted_rate keeps its historical meaning (first tree); the sum
    // covers the whole burst, so it dominates once a slot admits > 1.
    EXPECT_GT(r.admitted_rate_sum, 0.0);
    EXPECT_GE(r.admitted_rate_sum, r.admitted_rate);
    if (r.admissions == 1) {
      EXPECT_EQ(r.admitted_rate_sum, r.admitted_rate);
    } else {
      EXPECT_GT(r.admitted_rate_sum, r.admitted_rate);
      saw_multi_admission_slot = true;
    }
  }
  EXPECT_TRUE(saw_multi_admission_slot);
}

TEST(SessionService, AdmitLatencySinkRecordsEveryRoutedArrival) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 800;
  params.arrival_prob_per_slot = 0.4;
  // Single arrivals and bursts both feed the sink.
  for (const std::size_t burst : {std::size_t{1}, std::size_t{3}}) {
    std::vector<double> admit_us;
    SessionServiceConfig config{params, "", {}};
    config.arrival_burst = burst;
    config.admit_us = &admit_us;
    support::Rng rng(37);
    SessionService service(net, config, rng);
    const ProtocolMetrics m = run_stepped(service, params.horizon_slots);
    ASSERT_GT(m.sessions_arrived, 0u);
    EXPECT_EQ(admit_us.size(), m.sessions_arrived) << "burst " << burst;
    for (const double us : admit_us) EXPECT_GE(us, 0.0);
  }
}

TEST(SessionService, StepsBeyondProtocolHorizonKeepWorking) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  params.horizon_slots = 100;  // the service is not bounded by it
  support::Rng rng(4);
  SessionService service(net, SessionServiceConfig{params, "", {}}, rng);
  const ProtocolMetrics m = run_stepped(service, 2000);
  EXPECT_EQ(service.slot(), 2000u);
  EXPECT_GT(m.sessions_arrived, 0u);
}

// ---------------------------------------------------------------------------
// Runtime mutators (the ctl plane's `set` verbs apply these between steps).

TEST(SessionService, IdentitySettersPreserveTheSlotTrajectory) {
  const auto net = service_network();
  const ProtocolParams params = light_params();

  support::Rng plain_rng(7);
  SessionService plain(net, SessionServiceConfig{params, "", {}}, plain_rng);
  const ProtocolMetrics expected = run_stepped(plain, 2000);

  // Same run, but mid-flight every setter re-applies its current value —
  // what a pause/resume cycle with unchanged config does. Must be a no-op.
  support::Rng poked_rng(7);
  SessionService poked(net, SessionServiceConfig{params, "", {}}, poked_rng);
  run_stepped(poked, 1000);
  std::string error;
  ASSERT_TRUE(poked.set_arrival_prob(poked.arrival_prob(), &error)) << error;
  ASSERT_TRUE(poked.set_arrival_burst(poked.arrival_burst(), &error)) << error;
  ASSERT_TRUE(poked.set_batch_policy(poked.batch_policy(), &error)) << error;
  ASSERT_TRUE(poked.set_algorithm(poked.algorithm(), &error)) << error;
  const ProtocolMetrics actual = run_stepped(poked, 1000);

  EXPECT_EQ(actual.sessions_arrived, expected.sessions_arrived);
  EXPECT_EQ(actual.sessions_admitted, expected.sessions_admitted);
  EXPECT_EQ(actual.sessions_completed, expected.sessions_completed);
  EXPECT_EQ(actual.sessions_timed_out, expected.sessions_timed_out);
  EXPECT_DOUBLE_EQ(actual.mean_completion_slots,
                   expected.mean_completion_slots);
  EXPECT_DOUBLE_EQ(actual.mean_qubit_utilization,
                   expected.mean_qubit_utilization);
}

TEST(SessionService, SettersRejectInvalidValuesAndKeepTheOldOnes) {
  const auto net = service_network();
  support::Rng rng(7);
  SessionService service(net, SessionServiceConfig{light_params(), "", {}},
                         rng);
  std::string error;

  EXPECT_FALSE(service.set_arrival_prob(1.5, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(service.set_arrival_prob(-0.1, &error));
  EXPECT_FALSE(
      service.set_arrival_prob(std::numeric_limits<double>::quiet_NaN(),
                               &error));
  EXPECT_DOUBLE_EQ(service.arrival_prob(), 0.05);

  EXPECT_FALSE(service.set_arrival_burst(0, &error));
  EXPECT_EQ(service.arrival_burst(), 1u);

  EXPECT_FALSE(service.set_algorithm("no-such-router", &error));
  EXPECT_NE(error.find("no-such-router"), std::string::npos);
  EXPECT_EQ(service.algorithm(), "");
}

TEST(SessionService, ConstructorRejectsArrivalProbOutsideUnitInterval) {
  // The constructor applies set_arrival_prob's rule, so a boot config can
  // never hold a value the live setter would refuse.
  const auto net = service_network();
  for (const double prob : {1.5, -0.5, 5.0,
                            std::numeric_limits<double>::quiet_NaN()}) {
    SessionServiceConfig config{light_params(), "", {}};
    config.params.arrival_prob_per_slot = prob;
    support::Rng rng(1);
    EXPECT_THROW(SessionService(net, config, rng), std::invalid_argument)
        << prob;
  }
  for (const double prob : {0.0, 1.0}) {
    SessionServiceConfig config{light_params(), "", {}};
    config.params.arrival_prob_per_slot = prob;
    support::Rng rng(1);
    EXPECT_NO_THROW(SessionService(net, config, rng)) << prob;
  }
}

TEST(SessionService, SettersChangeBehaviorGoingForward) {
  const auto net = service_network();
  support::Rng rng(9);
  SessionService service(net, SessionServiceConfig{light_params(), "", {}},
                         rng);
  std::string error;
  ASSERT_TRUE(service.set_arrival_prob(0.0, &error)) << error;
  const ProtocolMetrics quiet = run_stepped(service, 500);
  EXPECT_EQ(quiet.sessions_arrived, 0u);

  ASSERT_TRUE(service.set_arrival_prob(0.5, &error)) << error;
  const ProtocolMetrics busy = run_stepped(service, 500);
  EXPECT_GT(busy.sessions_arrived, 0u);

  // Switching to a registry algorithm mid-run keeps admitting sessions.
  ASSERT_TRUE(service.set_algorithm("alg3", &error)) << error;
  EXPECT_EQ(service.algorithm(), "alg3");
  const ProtocolMetrics routed = run_stepped(service, 500);
  EXPECT_GT(routed.sessions_arrived, busy.sessions_arrived);
}

TEST(SessionService, FairShareComboIsRejectedAtRuntimeToo) {
  const auto net = service_network();
  ProtocolParams params = light_params();
  support::Rng rng(5);
  SessionServiceConfig config{params, "", {}};
  config.arrival_burst = 4;
  SessionService service(net, config, rng);
  std::string error;
  // fair-share batching needs the batch-native kernel (shared-prim/alg4);
  // pinning algorithm alg3 first makes the policy switch invalid.
  ASSERT_TRUE(service.set_algorithm("alg3", &error)) << error;
  EXPECT_FALSE(
      service.set_batch_policy(routing::BatchPolicy::kFairShare, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(service.batch_policy(), routing::BatchPolicy::kGivenOrder);
}

}  // namespace
}  // namespace muerp::sim
