#include "daemon/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "experiment/scenario.hpp"
#include "network/serialization.hpp"
#include "network/svg.hpp"
#include "routing/batch_router.hpp"
#include "support/telemetry/export.hpp"
#include "support/telemetry/flight_recorder.hpp"
#include "support/telemetry/link_ledger.hpp"
#include "support/telemetry/log.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::daemon {

namespace {

namespace tel = support::telemetry;
using support::json::Value;

/// Reads the count-valued argument `name` (id, lane, min-slot, max-slot,
/// limit, for) of a ctl verb into *out when present, refusing anything
/// outside [0, T's max] through checked_integer.
template <typename T>
ctl::CommandResult read_count(const Value& args, const char* name,
                              std::optional<T>* out) {
  const Value* v = args.find(name);
  if (v == nullptr) return ctl::CommandResult::success();
  T value{};
  ctl::CommandResult checked =
      checked_integer(*v, T{0}, std::numeric_limits<T>::max(), &value);
  if (!checked.ok) {
    checked.message = std::string(name) + " " + checked.message;
    return checked;
  }
  *out = value;
  return checked;
}

/// `text` as an argument of `type`: a JSON number for numeric arguments
/// when it parses as one, otherwise a string, which the schema check
/// refuses for a numeric argument.
Value arg_value(ctl::ArgType type, std::string text) {
  if (type == ctl::ArgType::kInt || type == ctl::ArgType::kNumber) {
    auto parsed = support::json::parse(text);
    if (parsed.ok() && parsed.value.is_number()) return parsed.value;
  }
  Value value;
  value.kind = Value::Kind::kString;
  value.string_value = std::move(text);
  return value;
}

/// Sets member `name` of the object `args`, replacing an earlier value.
void put(Value* args, const std::string& name, Value value) {
  for (auto& [key, existing] : args->members) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  args->members.emplace_back(name, std::move(value));
}

int http_status(const std::string& code) {
  if (code == ctl::kErrNotFound) return 404;
  if (code == ctl::kErrInternal) return 500;
  return 400;
}

std::string json_double(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

/// The topology document: the served network's static shape (node kinds,
/// positions, qubit budgets, fiber endpoints and lengths) joined with the
/// link ledger's live per-edge / per-switch occupancy. Empty `links` (OFF
/// build, or --record-links false) degrades to zeroed occupancy.
std::string topology_json(const net::QuantumNetwork& network,
                          const std::vector<tel::LinkStat>& links,
                          std::uint64_t slot) {
  const auto edges = network.graph().edges();
  std::string out = "{\"slot\": " + std::to_string(slot);
  out += ", \"nodes\": [";
  for (net::NodeId v = 0; v < network.node_count(); ++v) {
    if (v > 0) out += ", ";
    out += "{\"id\": " + std::to_string(v);
    out += ", \"kind\": \"";
    out += network.is_user(v) ? "user" : "switch";
    out += "\", \"x\": " + json_double(network.positions()[v].x);
    out += ", \"y\": " + json_double(network.positions()[v].y);
    if (network.is_switch(v)) {
      out += ", \"qubits\": " + std::to_string(network.qubits(v));
    }
    out += "}";
  }
  out += "], \"edges\": [";
  for (graph::EdgeId e = 0; e < edges.size(); ++e) {
    const auto& edge = edges[e];
    if (e > 0) out += ", ";
    const tel::LinkStat* live =
        e < links.size() && links[e].kind == tel::LinkKind::kEdge ? &links[e]
                                                                  : nullptr;
    out += "{\"id\": " + std::to_string(e);
    out += ", \"a\": " + std::to_string(edge.a);
    out += ", \"b\": " + std::to_string(edge.b);
    out += ", \"length_km\": " + json_double(edge.length_km);
    out += ", \"capacity\": " + std::to_string(live ? live->capacity : 0);
    out += ", \"held\": " + std::to_string(live ? live->held : 0);
    out += ", \"utilization\": " + json_double(live ? live->utilization : 0.0);
    out += "}";
  }
  out += "], \"switches\": [";
  const auto switch_ids = network.switches();
  for (std::size_t s = 0; s < switch_ids.size(); ++s) {
    if (s > 0) out += ", ";
    const std::size_t flat = edges.size() + s;
    const tel::LinkStat* live =
        flat < links.size() && links[flat].kind == tel::LinkKind::kSwitch
            ? &links[flat]
            : nullptr;
    out += "{\"node\": " + std::to_string(switch_ids[s]);
    out += ", \"capacity\": " +
           std::to_string(live ? live->capacity
                               : network.qubits(switch_ids[s]));
    out += ", \"held\": " + std::to_string(live ? live->held : 0);
    out += ", \"utilization\": " + json_double(live ? live->utilization : 0.0);
    out += "}";
  }
  out += "]}\n";
  return out;
}

/// The served network: a file, or a scenario-generated instance. Applies
/// the log knobs first, so network construction already logs.
net::QuantumNetwork boot_network(const DaemonConfig& config) {
  tel::LogLevel level{};
  tel::parse_log_level(config.log_level, &level);
  tel::set_log_level(level);
  tel::LogFormat format{};
  tel::parse_log_format(config.log_format, &format);
  tel::set_log_format(format);

  if (!config.net.empty()) {
    auto result = net::load_network_file(config.net);
    if (auto* error = std::get_if<std::string>(&result)) {
      throw std::invalid_argument("cannot load " + config.net + ": " + *error);
    }
    return std::move(std::get<net::QuantumNetwork>(result));
  }
  experiment::Scenario s;
  if (config.topology == "ws") {
    s.topology = experiment::TopologyKind::kWattsStrogatz;
  } else if (config.topology == "volchenkov") {
    s.topology = experiment::TopologyKind::kVolchenkov;
  } else {
    s.topology = experiment::TopologyKind::kWaxman;
  }
  s.switch_count = static_cast<std::size_t>(config.switches);
  s.user_count = static_cast<std::size_t>(config.users);
  s.qubits_per_switch = static_cast<int>(config.qubits);
  s.average_degree = config.degree;
  s.attenuation = config.alpha;
  s.swap_success = config.swap;
  s.seed = static_cast<std::uint64_t>(config.seed);
  return std::move(experiment::instantiate(s, 0).network);
}

sim::ShardedSessionServiceConfig service_config(
    const DaemonConfig& config, const net::QuantumNetwork& network) {
  const auto users = static_cast<std::int64_t>(network.users().size());
  if (config.max_group < config.min_group || config.max_group > users) {
    throw std::invalid_argument(
        "group sizes must satisfy 2 <= min <= max <= user count (" +
        std::to_string(users) + ")");
  }
  sim::ShardedSessionServiceConfig out;
  sim::SessionServiceConfig& base = out.base;
  base.algorithm = config.algorithm;
  // Registry admission routes on a residual-capacity copy; Algorithm 2's
  // sufficient-condition boost would fake qubits the service doesn't have.
  base.router_options.pin_alg2_sufficient = false;
  base.params.arrival_prob_per_slot = config.arrival;
  base.params.min_group_size = static_cast<std::size_t>(config.min_group);
  base.params.max_group_size = static_cast<std::size_t>(config.max_group);
  base.params.session_timeout_slots =
      static_cast<std::uint64_t>(config.timeout);
  base.arrival_burst = static_cast<std::size_t>(config.arrival_burst);
  routing::parse_batch_policy(config.batch_policy, &base.batch_policy);
  out.lane_count = static_cast<std::size_t>(config.lanes);
  out.shard_count = static_cast<std::size_t>(config.shards);
  out.record_sessions = config.record_sessions;
  out.recorder_capacity = static_cast<std::size_t>(config.recorder_capacity);
  out.recorder_happy_keep_per_1024 =
      static_cast<std::uint32_t>(config.recorder_keep);
  out.record_links = config.record_links;
  out.ledger_window_slots = static_cast<std::uint64_t>(config.link_window);
  out.ledger_event_capacity = static_cast<std::size_t>(config.link_events);
  return out;
}

constexpr std::size_t kHotLinkGauges = 5;

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      algorithm_label_(display(*find_ctl_setting("algorithm"), config_)),
      ctl_token_(config_.ctl_token),
      has_history_(!config_.history.empty()),
      network_(boot_network(config_)),
      // The service validates its own configuration (e.g. fair-share needs
      // a batch-native kernel) and throws std::invalid_argument.
      service_(network_, service_config(config_, network_),
               static_cast<std::uint64_t>(config_.seed)),
      store_(static_cast<std::size_t>(config_.retention)),
      alerts_(store_),
      sampler_(store_, {std::chrono::milliseconds(config_.sample_interval_ms)}),
      scheduler_({std::chrono::milliseconds(config_.slot_ms),
                  static_cast<std::uint64_t>(config_.tick_batch)}),
      slots_counter_("muerpd/slots/" + algorithm_label_),
      requests_counter_("muerpd/requests/" + algorithm_label_),
      admitted_counter_("muerpd/admitted/" + algorithm_label_),
      completed_counter_("muerpd/completed/" + algorithm_label_),
      slot_us_histogram_("muerpd/slot_us/" + algorithm_label_),
      backlog_gauge_("muerpd/scheduler/backlog"),
      overrun_gauge_("muerpd/scheduler/overrun_us"),
      link_util_histogram_("net/link_util_pct"),
      exporter_({.port = static_cast<std::uint16_t>(config_.port),
                 .bind_address = config_.bind}) {
  // Durable session history: replay previous runs (truncating any torn
  // tail), then mark this run's start.
  if (has_history_) {
    std::string error;
    if (!history_.open(config_.history, &error)) {
      throw std::invalid_argument(error);
    }
    if (history_.bytes_truncated() > 0) {
      MUERP_LOG_WARN("muerpd/history_truncated",
                     tel::field("bytes", history_.bytes_truncated()));
    }
    history_.begin_run();
  }
  for (const Setting& row : settings()) {
    if (row.apply == nullptr) continue;
    if (&row == find_ctl_setting("algorithm")) {
      algorithm_row_ = live_rows_.size();
    }
    live_rows_.push_back(&row);
  }
  link_util_gauges_.reserve(kHotLinkGauges);
  for (std::size_t k = 0; k < kHotLinkGauges; ++k) {
    link_util_gauges_.emplace_back("net/link_util/top" + std::to_string(k));
  }
  mailbox_.set_wake([this] { scheduler_.kick(); });
  exporter_.set_time_series(&store_);

  add_settings_plane();
  add_lifecycle_plane();
  add_recorder_plane();
  add_network_plane();
  add_alert_plane();
  add_ctl_route();
}

// ---------------------------------------------------------------------------
// Read snapshot.

const char* Daemon::state_name(RunState state) {
  switch (state) {
    case RunState::kRunning:
      return "running";
    case RunState::kPaused:
      return "paused";
    case RunState::kDraining:
      return "draining";
  }
  return "?";
}

void Daemon::publish() {
  const sim::ProtocolMetrics m = service_.metrics();
  ReadSnapshot next;
  next.state = run_state_;
  next.slot = service_.slot();
  next.active = service_.active_sessions();
  next.arrived = m.sessions_arrived;
  next.admitted = m.sessions_admitted;
  next.completed = m.sessions_completed;
  next.timed_out = m.sessions_timed_out;
  next.rejected = m.sessions_rejected;
  next.arrivals_enabled = service_.arrivals_enabled();
  next.settings.reserve(live_rows_.size());
  for (const Setting* row : live_rows_) {
    next.settings.push_back(render(*row, config_));
  }
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(next);
}

Daemon::ReadSnapshot Daemon::read_snapshot() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

ctl::CommandResult Daemon::mutate(std::function<ctl::CommandResult()> action) {
  return mailbox_.submit([this, action = std::move(action)] {
    ctl::CommandResult result = action();
    publish();
    return result;
  });
}

std::optional<ctl::CommandResult> Daemon::refuse_if_draining() const {
  // The drain action republishes before its reply, so the published state
  // is current for every request that follows it.
  if (read_snapshot().state == RunState::kDraining) {
    return ctl::CommandResult::failure(ctl::kErrDraining, "daemon is draining");
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Planes. Each registers its ctl verbs and the HTTP pages that mirror them.

void Daemon::add_settings_plane() {
  const auto unknown = [](const std::string& name) {
    return ctl::CommandResult::failure(
        ctl::kErrBadArg, "unknown setting '" + name +
                             "' (known: " + ctl_setting_names() + ")");
  };
  registry_.add(
      {"set",
       "change a runtime setting (applied at the next tick boundary)",
       {{"name", ctl::ArgType::kString, true, "setting to change"},
        {"value", ctl::ArgType::kAny, true, "new value (type per setting)"}},
       [this, unknown](const Value& args) {
         const std::string& name = args["name"].string_value;
         const Setting* row = find_ctl_setting(name);
         if (row == nullptr) return unknown(name);
         if (row->apply == nullptr) {
           return ctl::CommandResult::failure(
               ctl::kErrUnsupported, "setting '" + name + "' is read-only");
         }
         if (auto refused = refuse_if_draining()) return *refused;
         // Copy the value out of the parsed request: the mailbox action
         // runs after this handler's request document is gone.
         return mutate([this, row, value = args["value"]] {
           DaemonConfig next = config_;
           ctl::CommandResult result = store(*row, value, &next);
           if (!result.ok) {
             result.message = std::string(row->ctl) + " " + result.message;
             return result;
           }
           result = row->apply(live_, next);
           if (!result.ok) return result;
           config_ = std::move(next);
           return ctl::CommandResult::success(render(*row, config_));
         });
       }});
  registry_.add(
      {"get",
       "read a runtime setting (from the tick snapshot; `lifetime` waits for "
       "the next tick boundary)",
       {{"name", ctl::ArgType::kString, true, "setting to read"}},
       [this, unknown](const Value& args) {
         const std::string& name = args["name"].string_value;
         const Setting* row = find_ctl_setting(name);
         if (row == nullptr) return unknown(name);
         const auto live =
             std::find(live_rows_.begin(), live_rows_.end(), row);
         if (live != live_rows_.end()) {
           return ctl::CommandResult::success(
               read_snapshot().settings[live - live_rows_.begin()]);
         }
         if (!has_history_) {
           return ctl::CommandResult::failure(
               ctl::kErrUnsupported,
               "no --history file configured for this daemon");
         }
         return mailbox_.submit([this] { return lifetime(); });
       }});
}

void Daemon::add_lifecycle_plane() {
  exporter_.set_health_fields([this, lanes = config_.lanes,
                               shards = config_.shards](std::string& body) {
    const ReadSnapshot read = read_snapshot();
    body += ", \"state\": \"";
    body += state_name(read.state);
    body += "\"";
    body += ", \"algorithm\": " + read.settings[algorithm_row_];
    body += ", \"slot\": " + std::to_string(read.slot);
    body += ", \"active_sessions\": " + std::to_string(read.active);
    body += ", \"sessions_arrived\": " + std::to_string(read.arrived);
    body += ", \"sessions_admitted\": " + std::to_string(read.admitted);
    body += ", \"sessions_completed\": " + std::to_string(read.completed);
    body += ", \"lanes\": " + std::to_string(lanes);
    body += ", \"shards\": " + std::to_string(shards);
    body += ", \"alerts_firing\": " +
            std::to_string(alerts_firing_.load(std::memory_order_relaxed));
  });
  registry_.add(
      {"status",
       "lifecycle state plus the session counters (from the tick snapshot)",
       {},
       [this](const Value&) {
         const ReadSnapshot read = read_snapshot();
         std::string out = "{\"state\": ";
         out += ctl::json_quote(state_name(read.state));
         out += ", \"slot\": " + std::to_string(read.slot);
         out += ", \"active_sessions\": " + std::to_string(read.active);
         out += ", \"arrived\": " + std::to_string(read.arrived);
         out += ", \"admitted\": " + std::to_string(read.admitted);
         out += ", \"completed\": " + std::to_string(read.completed);
         out += ", \"timed_out\": " + std::to_string(read.timed_out);
         out += ", \"rejected\": " + std::to_string(read.rejected);
         out += ", \"arrivals_enabled\": ";
         out += read.arrivals_enabled ? "true" : "false";
         out += "}";
         return ctl::CommandResult::success(out);
       }});
  registry_.add(
      {"pause",
       "hold the slot loop (the deadline grid keeps advancing; resuming "
       "never replays a backlog)",
       {},
       [this](const Value&) {
         if (auto refused = refuse_if_draining()) return *refused;
         return mutate([this] {
           run_state_ = RunState::kPaused;
           return ctl::CommandResult::success("{\"state\": \"paused\"}");
         });
       }});
  registry_.add(
      {"resume", "resume a paused slot loop", {}, [this](const Value&) {
         if (auto refused = refuse_if_draining()) return *refused;
         return mutate([this] {
           run_state_ = RunState::kRunning;
           return ctl::CommandResult::success("{\"state\": \"running\"}");
         });
       }});
  registry_.add(
      {"drain",
       "stop intake, finish in-flight sessions, then exit",
       {},
       [this](const Value&) {
         if (auto refused = refuse_if_draining()) return *refused;
         return mutate([this] {
           service_.set_arrivals_enabled(false);
           drain_started_slot_ = service_.slot();
           run_state_ = RunState::kDraining;
           return ctl::CommandResult::success(
               "{\"state\": \"draining\", \"active_sessions\": " +
               std::to_string(service_.active_sessions()) + "}");
         });
       }});
  registry_.add(
      {"snapshot",
       "full metrics + recent-events document, inline or written to a file",
       {{"path", ctl::ArgType::kString, false,
         "write the document here instead of returning it"}},
       [](const Value& args) {
         const std::string document = tel::snapshot_document(
             tel::capture_process(), tel::recent_log_events());
         const Value* path = args.find("path");
         if (path == nullptr) return ctl::CommandResult::success(document);
         std::ofstream out(path->string_value);
         if (!out) {
           return ctl::CommandResult::failure(
               ctl::kErrBadArg,
               "cannot write snapshot to '" + path->string_value + "'");
         }
         out << document;
         return ctl::CommandResult::success(
             "{\"written\": " + ctl::json_quote(path->string_value) + "}");
       }});
  registry_.add({"commands",
                 "this command table, with argument schemas",
                 {},
                 [this](const Value&) {
                   return ctl::CommandResult::success(
                       registry_.describe_json());
                 }});
}

// Flight-recorder and network verbs are read-only and internally locked, so
// they run directly on the acceptor thread: a query keeps answering while
// the loop thread is blocked in acquire() or a routing pass.
void Daemon::add_recorder_plane() {
  registry_.add(
      {"sessions",
       "flight-recorder records (tail-sampled; rejections and timeouts are "
       "always kept)",
       {{"state", ctl::ArgType::kString, false,
         "active|completed|timed_out|rejected|drained"},
        {"lane", ctl::ArgType::kInt, false, "only this lane"},
        {"alg", ctl::ArgType::kString, false,
         "only this admission algorithm"},
        {"min-slot", ctl::ArgType::kInt, false, "arrival slot >= this"},
        {"max-slot", ctl::ArgType::kInt, false, "arrival slot <= this"},
        {"limit", ctl::ArgType::kInt, false,
         "keep the n most recent matches across all lanes: finalized "
         "records by end slot, then active ones by arrival slot (default "
         "100; 0 = all)"}},
       [this](const Value& args) {
         tel::SessionFilter filter;
         if (const auto* v = args.find("state")) {
           tel::SessionState state;
           if (!tel::parse_session_state(v->string_value, &state)) {
             return ctl::CommandResult::failure(
                 ctl::kErrOutOfRange,
                 "unknown state '" + v->string_value +
                     "' (active|completed|timed_out|rejected|drained)");
           }
           filter.state = state;
         }
         if (const auto* v = args.find("alg")) {
           filter.algorithm = v->string_value;
         }
         std::optional<std::size_t> limit;
         for (auto read : {read_count(args, "lane", &filter.lane),
                           read_count(args, "min-slot", &filter.min_slot),
                           read_count(args, "max-slot", &filter.max_slot),
                           read_count(args, "limit", &limit)}) {
           if (!read.ok) return read;
         }
         filter.limit = limit.value_or(100);
         return ctl::CommandResult::success(tel::session_records_json(
             service_.session_records(filter),
             service_.session_record_stats()));
       }});
  registry_.add(
      {"session",
       "one full flight record by id (as `sessions` reports them)",
       {{"id", ctl::ArgType::kInt, true, "record id (lane << 32 | seq)"},
        {"format", ctl::ArgType::kString, false,
         "json (default) or trace (Chrome trace-event document)"}},
       [this](const Value& args) {
         std::optional<std::uint64_t> id;
         if (auto read = read_count(args, "id", &id); !read.ok) return read;
         const auto record = service_.find_session_record(*id);
         if (!record) {
           return ctl::CommandResult::failure(
               ctl::kErrNotFound,
               "no flight record with id " + std::to_string(*id));
         }
         std::string format = "json";
         if (const auto* v = args.find("format")) format = v->string_value;
         if (format == "trace") {
           return ctl::CommandResult::success(tel::session_trace_json(*record));
         }
         if (format != "json") {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                              "format must be json|trace");
         }
         return ctl::CommandResult::success(tel::session_record_json(*record));
       }});
  exporter_.add_route("GET", "/api/v1/sessions", serve_verb("sessions"));
  exporter_.add_prefix_route("GET", "/api/v1/session/",
                             serve_verb("session", "/api/v1/session/"));
}

void Daemon::add_network_plane() {
  // link_stats() snapshots each lane ledger under its own short lock and
  // never mutates windowed state; the slot label comes from the read
  // snapshot (the live service slot is loop-thread state).
  registry_.add(
      {"topology",
       "the served network joined with live per-link occupancy",
       {},
       [this](const Value&) {
         return ctl::CommandResult::success(topology_json(
             network_, service_.link_stats(), read_snapshot().slot));
       }});
  registry_.add(
      {"links",
       "per-link utilization / attempts / contention-loss table",
       {{"sort", ctl::ArgType::kString, false, "util (default) or losses"},
        {"limit", ctl::ArgType::kInt, false,
         "keep only the top n links (0 = all)"}},
       [this](const Value& args) {
         tel::LinkSort sort = tel::LinkSort::kUtil;
         if (const auto* v = args.find("sort")) {
           if (!tel::parse_link_sort(v->string_value, &sort)) {
             return ctl::CommandResult::failure(
                 ctl::kErrOutOfRange,
                 "unknown sort '" + v->string_value + "' (util|losses)");
           }
         }
         std::optional<std::size_t> limit;
         if (auto read = read_count(args, "limit", &limit); !read.ok) {
           return read;
         }
         auto stats = service_.link_stats();
         tel::sort_links(stats, sort, limit.value_or(0));
         return ctl::CommandResult::success(
             tel::links_json(stats, read_snapshot().slot));
       }});
  registry_.add(
      {"explain",
       "a flight record joined with the links saturated at its admission "
       "slot (why was THIS session rejected)",
       {{"id", ctl::ArgType::kInt, true, "record id (lane << 32 | seq)"}},
       [this](const Value& args) {
         std::optional<std::uint64_t> id;
         if (auto read = read_count(args, "id", &id); !read.ok) return read;
         // Unknown ids still succeed with a found:false document: explain
         // is a join, and a missing record is a valid answer.
         const auto explained = service_.explain_session(*id);
         if (!explained) {
           return ctl::CommandResult::success(
               tel::explain_json(*id, nullptr, tel::SaturatedLinks{}));
         }
         return ctl::CommandResult::success(
             tel::explain_json(*id, &explained->record, explained->saturated));
       }});
  exporter_.add_route("GET", "/api/v1/topology", serve_verb("topology"));
  exporter_.add_route("GET", "/api/v1/links", serve_verb("links"));
  exporter_.add_prefix_route("GET", "/api/v1/explain/",
                             serve_verb("explain", "/api/v1/explain/"));
  exporter_.add_route(
      "GET", "/api/v1/topology.svg", [this](const tel::HttpRequest&) {
        std::vector<double> utilization(network_.graph().edges().size(), 0.0);
        for (const tel::LinkStat& stat : service_.link_stats()) {
          if (stat.kind == tel::LinkKind::kEdge &&
              stat.index < utilization.size()) {
            utilization[stat.index] = stat.utilization;
          }
        }
        net::SvgOptions svg_options;
        svg_options.edge_utilization = &utilization;
        svg_options.title = "muerpd link utilization, slot " +
                            std::to_string(read_snapshot().slot);
        return tel::HttpExporter::response(
            200, "image/svg+xml", net::to_svg(network_, nullptr, svg_options));
      });
}

void Daemon::add_alert_plane() {
  // The whole rule table is evaluated right after every registry capture,
  // on the sampler's thread; alerts_firing_ mirrors the count for /healthz
  // so the health appender never takes engine locks.
  sampler_.set_after_sample([this](std::uint64_t t_ns) {
    alerts_.evaluate(t_ns);
    alerts_firing_.store(alerts_.firing(), std::memory_order_relaxed);
  });
  // Default SLO rules, all burn-rate style (three consecutive breached
  // samples) so one noisy sample never fires; `ctl slo` can retune or drop
  // any of them at runtime.
  tel::AlertRule rejections;
  rejections.name = "rejection-ratio";
  rejections.kind = tel::AlertKind::kRatio;
  rejections.metric = "session/rejected";
  rejections.denominator = "session/arrived";
  rejections.threshold = 0.5;
  rejections.for_count = 3;
  alerts_.upsert(rejections);

  tel::AlertRule backlog;
  backlog.name = "scheduler-backlog";
  backlog.kind = tel::AlertKind::kGauge;
  backlog.metric = "muerpd/scheduler/backlog";
  backlog.threshold = static_cast<double>(config_.tick_batch);
  backlog.for_count = 3;
  alerts_.upsert(backlog);

  if (config_.slot_ms > 0) {
    // A paced daemon whose p95 slot latency exceeds the slot period is
    // falling behind its own grid.
    tel::AlertRule p95;
    p95.name = "slot-p95-us";
    p95.kind = tel::AlertKind::kHistogramQuantile;
    p95.metric = "muerpd/slot_us/" + algorithm_label_;
    p95.quantile = 0.95;
    p95.threshold = static_cast<double>(config_.slot_ms) * 1000.0;
    p95.for_count = 3;
    alerts_.upsert(p95);
  }

  registry_.add(
      {"slo",
       "alert-rule table: list (default), set a rule, or remove one",
       {{"action", ctl::ArgType::kString, false, "list|set|remove"},
        {"name", ctl::ArgType::kString, false, "rule name (set/remove)"},
        {"kind", ctl::ArgType::kString, false,
         "counter-rate|gauge|histogram-quantile|ratio (set)"},
        {"metric", ctl::ArgType::kString, false,
         "counter/gauge/histogram name; ratio numerator (set)"},
        {"denominator", ctl::ArgType::kString, false,
         "ratio denominator counter (set, kind=ratio)"},
        {"quantile", ctl::ArgType::kNumber, false,
         "quantile in [0, 1] (set, kind=histogram-quantile; default 0.95)"},
        {"window-seconds", ctl::ArgType::kNumber, false,
         "trailing evaluation window (set; default 60)"},
        {"op", ctl::ArgType::kString, false,
         "above|below (set; default above)"},
        {"threshold", ctl::ArgType::kNumber, false, "breach threshold (set)"},
        {"for", ctl::ArgType::kInt, false,
         "consecutive breached samples before firing (set; default 1)"},
        {"severity", ctl::ArgType::kString, false,
         "free-form label surfaced with the alert (set; default warning)"}},
       [this](const Value& args) {
         std::string action = "list";
         if (const auto* v = args.find("action")) action = v->string_value;
         if (action == "list") {
           return ctl::CommandResult::success(
               tel::alerts_json(alerts_.status()));
         }
         const auto* name = args.find("name");
         if (name == nullptr || name->string_value.empty()) {
           return ctl::CommandResult::failure(
               ctl::kErrBadArg, "slo " + action + " needs name=<rule>");
         }
         if (action == "remove") {
           if (!alerts_.remove(name->string_value)) {
             return ctl::CommandResult::failure(
                 ctl::kErrNotFound,
                 "no alert rule named '" + name->string_value + "'");
           }
           return ctl::CommandResult::success(
               "{\"removed\": " + ctl::json_quote(name->string_value) + "}");
         }
         if (action != "set") {
           return ctl::CommandResult::failure(
               ctl::kErrOutOfRange,
               "unknown action '" + action + "' (list|set|remove)");
         }
         tel::AlertRule rule;
         rule.name = name->string_value;
         if (const auto* v = args.find("kind")) {
           if (!tel::parse_alert_kind(v->string_value, &rule.kind)) {
             return ctl::CommandResult::failure(
                 ctl::kErrOutOfRange,
                 "unknown kind '" + v->string_value +
                     "' (counter-rate|gauge|histogram-quantile|ratio)");
           }
         }
         if (const auto* v = args.find("metric")) rule.metric = v->string_value;
         if (const auto* v = args.find("denominator")) {
           rule.denominator = v->string_value;
         }
         if (const auto* v = args.find("quantile")) {
           rule.quantile = v->number_value;
         }
         if (const auto* v = args.find("window-seconds")) {
           // Whole nanoseconds, at least one, that fit the uint64 window.
           Value ns;
           ns.kind = Value::Kind::kNumber;
           ns.number_value = std::floor(v->number_value * 1e9);
           std::uint64_t window_ns = 0;
           if (!checked_integer(ns, std::uint64_t{1},
                                std::numeric_limits<std::uint64_t>::max(),
                                &window_ns)
                    .ok) {
             return ctl::CommandResult::failure(
                 ctl::kErrOutOfRange,
                 "window-seconds must be in [1e-9, 1.8e10]");
           }
           rule.window_ns = window_ns;
         }
         if (const auto* v = args.find("op")) {
           if (!tel::parse_alert_op(v->string_value, &rule.op)) {
             return ctl::CommandResult::failure(
                 ctl::kErrOutOfRange,
                 "unknown op '" + v->string_value + "' (above|below)");
           }
         }
         if (const auto* v = args.find("threshold")) {
           rule.threshold = v->number_value;
         }
         if (const auto* v = args.find("for")) {
           auto checked = checked_integer(
               *v, std::uint32_t{1}, std::numeric_limits<std::uint32_t>::max(),
               &rule.for_count);
           if (!checked.ok) {
             checked.message = "for " + checked.message;
             return checked;
           }
         }
         if (const auto* v = args.find("severity")) {
           rule.severity = v->string_value;
         }
         std::string rule_error;
         if (!alerts_.upsert(rule, &rule_error)) {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange, rule_error);
         }
         return ctl::CommandResult::success(tel::alerts_json(alerts_.status()));
       }});
  // A GET never mutates: the page pins the list action.
  exporter_.add_route("GET", "/api/v1/alerts",
                      serve_verb("slo", {},
                                 support::json::parse(R"({"action": "list"})")
                                     .value));
}

void Daemon::add_ctl_route() {
  exporter_.add_route("POST", "/api/v1/ctl",
                      [this](const tel::HttpRequest& request) {
    // With --ctl-token the command plane requires a matching bearer token;
    // read-only GET pages stay open (observability is not a mutation). 401
    // carries the envelope shape clients already parse.
    if (!ctl_token_.empty() &&
        request.authorization != "Bearer " + ctl_token_) {
      return tel::HttpExporter::response(
          401, "application/json",
          "{\"ok\": false, \"code\": \"unauthorized\", \"error\": "
          "\"missing or wrong bearer token (--ctl-token)\"}\n",
          "WWW-Authenticate: Bearer\r\n");
    }
    // Every outcome is HTTP 200 with the envelope carrying ok/code;
    // transport-level errors stay HTTP.
    return tel::HttpExporter::response(200, "application/json",
                                       registry_.dispatch(request.body));
  });
}

Daemon::RouteHandler Daemon::serve_verb(std::string cmd, std::string prefix,
                                        Value fixed) {
  return [this, cmd = std::move(cmd), prefix = std::move(prefix),
          fixed = std::move(fixed)](const tel::HttpRequest& request) {
    const ctl::CommandSpec& spec = *registry_.find(cmd);
    Value args;
    args.kind = Value::Kind::kObject;
    for (const ctl::ArgSpec& arg : spec.args) {
      std::string text = tel::http_query_param(request.query, arg.name);
      if (!text.empty()) {
        put(&args, arg.name, arg_value(arg.type, std::move(text)));
      }
    }
    if (!prefix.empty()) {
      put(&args, "id", arg_value(ctl::ArgType::kInt,
                                 request.path.substr(prefix.size())));
    }
    for (const auto& [name, value] : fixed.members) put(&args, name, value);
    ctl::CommandResult result = registry_.run(cmd, args);
    if (!result.ok) {
      return tel::HttpExporter::response(
          http_status(result.code), "application/json",
          "{\"error\": " + ctl::json_quote(result.message) + "}\n");
    }
    if (result.result_json.back() != '\n') result.result_json += '\n';
    return tel::HttpExporter::response(200, "application/json",
                                       result.result_json);
  };
}

// ---------------------------------------------------------------------------
// The slot loop.

bool Daemon::start(std::string* error) {
  publish();  // slot-0 snapshot, so the first scrape sees real fields
  if (!exporter_.start(error)) {
    *error = "cannot serve on " + config_.bind + ":" +
             std::to_string(config_.port) + ": " + *error;
    return false;
  }
  sampler_.start();
  MUERP_LOG_INFO("muerpd/start", tel::field("algorithm", algorithm_label_),
                 tel::field("port", exporter_.port()),
                 tel::field("users", network_.users().size()),
                 tel::field("switches", network_.switches().size()));
  return true;
}

void Daemon::flush_history(bool force) {
  if (!history_.is_open()) return;
  const std::uint64_t now = tel::monotonic_now_ns();
  if (!force && now - history_last_append_ns_ < 250'000'000ull) return;
  const sim::ProtocolMetrics m = service_.metrics();
  ctl::HistoryRecord record;
  record.slots = service_.slot() - history_flushed_slots_;
  record.arrived = m.sessions_arrived - history_flushed_.sessions_arrived;
  record.admitted = m.sessions_admitted - history_flushed_.sessions_admitted;
  record.completed = m.sessions_completed - history_flushed_.sessions_completed;
  record.timed_out = m.sessions_timed_out - history_flushed_.sessions_timed_out;
  record.rejected = m.sessions_rejected - history_flushed_.sessions_rejected;
  history_last_append_ns_ = now;
  // A forced flush (drain/shutdown, `ctl get lifetime`) never skips; the
  // idle check only keeps a paused daemon from growing the file, and it
  // covers every delta field.
  if (!force && record.slots == 0 && record.arrived == 0 &&
      record.admitted == 0 && record.completed == 0 &&
      record.timed_out == 0 && record.rejected == 0) {
    return;
  }
  if (history_.append(record)) {
    history_flushed_ = m;
    history_flushed_slots_ = service_.slot();
  }
}

ctl::CommandResult Daemon::lifetime() {
  flush_history(true);
  const ctl::HistoryTotals t = history_.lifetime();
  std::string out = "{\"runs\": " + std::to_string(t.runs);
  out += ", \"slots\": " + std::to_string(t.slots);
  out += ", \"arrived\": " + std::to_string(t.arrived);
  out += ", \"admitted\": " + std::to_string(t.admitted);
  out += ", \"completed\": " + std::to_string(t.completed);
  out += ", \"timed_out\": " + std::to_string(t.timed_out);
  out += ", \"rejected\": " + std::to_string(t.rejected);
  out += "}";
  return ctl::CommandResult::success(out);
}

void Daemon::publish_hot_links() {
  if (!config_.record_links) return;
  auto hot = service_.link_stats();
  tel::sort_links(hot, tel::LinkSort::kUtil, kHotLinkGauges);
  for (std::size_t k = 0; k < kHotLinkGauges; ++k) {
    const double util = k < hot.size() ? hot[k].utilization : 0.0;
    link_util_gauges_[k].set(util);
    if (k < hot.size()) link_util_histogram_.observe(util * 100.0);
  }
}

void Daemon::play(std::uint64_t due) {
  const std::uint64_t t0 = tel::monotonic_now_ns();
  const sim::ShardTickReport tick = service_.run_slots(due);
  scheduler_.advance(due);
  // Mean per-slot latency over the batch (one observation per slot keeps
  // the histogram's count equal to the slot count).
  const double per_slot_us =
      static_cast<double>(tel::monotonic_now_ns() - t0) /
      (1e3 * static_cast<double>(due));
  for (std::uint64_t s = 0; s < due; ++s) {
    slot_us_histogram_.observe(per_slot_us);
  }
  slots_counter_.add(due);
  requests_counter_.add(tick.arrivals);
  admitted_counter_.add(tick.admissions);
  if (tick.completed > 0) completed_counter_.add(tick.completed);
  backlog_gauge_.set(static_cast<double>(scheduler_.backlog()));
  overrun_gauge_.set(static_cast<double>(scheduler_.overrun_ns()) / 1e3);
  publish();
  publish_hot_links();
  flush_history(false);
  // Heartbeat: one debug line per 256 wakes, not one per slot.
  MUERP_LOG_EVERY_N(256, tel::LogLevel::kDebug, "muerpd/slot",
                    tel::field("slot", service_.slot()),
                    tel::field("batch", due),
                    tel::field("active", tick.active_sessions),
                    tel::field("qubit_utilization", tick.qubit_utilization));
}

// Drain control commands at the tick boundary, block until the next slot on
// the fixed grid is due, play every due slot as one batch, publish, repeat.
// acquire() bounds its waits so a signal (which cannot wake the condition
// variable) is observed promptly; a 0 return is just a control wake. While
// paused, due slots are advanced WITHOUT being played: the grid keeps
// moving, so resume continues at the live edge with no catch-up burst, and
// a --slots-bounded run still plays exactly its N slots — which is what
// makes a paused-then-resumed run bit-identical to an unpaused one.
void Daemon::run(const std::atomic<int>& stop) {
  const auto max_slots = static_cast<std::uint64_t>(config_.slots);
  const auto drain_cap = static_cast<std::uint64_t>(config_.timeout) + 1;
  while (stop.load() == 0 && (max_slots == 0 || service_.slot() < max_slots)) {
    mailbox_.drain();
    const RunState state = run_state_;
    if (state == RunState::kPaused) {
      publish();
      if (config_.slot_ms == 0) {
        // Unpaced pause has no deadline grid to follow: idle on the
        // mailbox instead of spinning through immediate acquire()s.
        mailbox_.wait_pending(std::chrono::milliseconds(50));
        continue;
      }
      const std::uint64_t due = scheduler_.acquire();
      mailbox_.drain();  // a resume may be what woke the wait
      if (run_state_ == RunState::kPaused && due > 0) scheduler_.advance(due);
      continue;
    }
    std::uint64_t due = scheduler_.acquire();
    if (due == 0) continue;  // control wake: drain at the top of the loop
    if (max_slots != 0) due = std::min(due, max_slots - service_.slot());
    play(due);
    if (state == RunState::kDraining &&
        (service_.active_sessions() == 0 ||
         service_.slot() - drain_started_slot_ >= drain_cap)) {
      break;  // commanded drain finished
    }
  }
  if (stop.load() != 0 && run_state_ != RunState::kDraining) {
    drain_on_signal(stop);
  }
  // Sessions still in flight are finalized as drained flight records, so
  // "killed mid-run" stays distinguishable from "timed out".
  service_.finalize_session_records();
  flush_history(true);
  history_.close();

  const sim::ProtocolMetrics m = service_.metrics();
  MUERP_LOG_INFO("muerpd/shutdown", tel::field("slot", service_.slot()),
                 tel::field("arrived", m.sessions_arrived),
                 tel::field("completed", m.sessions_completed),
                 tel::field("drain_slots", drain_slots_),
                 tel::field("drained_completed", drained_completed_),
                 tel::field("active_remaining", service_.active_sessions()));
  // Close the mailbox BEFORE the exporter: pending and future control
  // submits fail fast with shutting_down, so an acceptor thread blocked in
  // a ctl request can answer and the exporter join cannot deadlock.
  mailbox_.close();
  sampler_.stop();
  exporter_.stop();

  if (!config_.snapshot_out.empty()) {
    std::ofstream out(config_.snapshot_out);
    if (out) {
      out << tel::snapshot_document(tel::capture_process(),
                                    tel::recent_log_events());
    } else {
      std::cerr << "muerpd: cannot write --snapshot-out "
                << config_.snapshot_out << '\n';
    }
  }
}

// Graceful shutdown on signal: stop arrivals and play unpaced slots until
// the in-flight sessions complete or time out (bounded by the session
// timeout); a second signal skips the rest. Control commands still drain
// so `get lifetime` keeps answering (mutations are refused: draining).
void Daemon::drain_on_signal(const std::atomic<int>& stop) {
  const auto drain_cap = static_cast<std::uint64_t>(config_.timeout) + 1;
  run_state_ = RunState::kDraining;
  service_.set_arrivals_enabled(false);
  publish();
  while (stop.load() < 2 && drain_slots_ < drain_cap) {
    mailbox_.drain();
    if (service_.active_sessions() == 0) break;
    const sim::ShardTickReport tick = service_.step();
    ++drain_slots_;
    slots_counter_.add();
    if (tick.completed > 0) completed_counter_.add(tick.completed);
    drained_completed_ += tick.completed;
    publish();
  }
}

support::Table Daemon::summary() const {
  const sim::ProtocolMetrics m = service_.metrics();
  support::Table table("muerpd session service (" +
                           display(*live_rows_[algorithm_row_], config_) + ")",
                       {"metric", "value"});
  table.add_row("slots played", {static_cast<double>(service_.slot())});
  table.add_row("sessions arrived", {static_cast<double>(m.sessions_arrived)});
  table.add_row("sessions admitted",
                {static_cast<double>(m.sessions_admitted)});
  table.add_row("sessions completed",
                {static_cast<double>(m.sessions_completed)});
  table.add_row("sessions timed out",
                {static_cast<double>(m.sessions_timed_out)});
  table.add_row("admitted fraction", {m.admitted_fraction()});
  table.add_row("mean completion slots", {m.mean_completion_slots});
  table.add_row("mean qubit utilization", {m.mean_qubit_utilization});
  table.add_row("http requests served",
                {static_cast<double>(exporter_.requests_served())});
  table.add_row("time-series samples",
                {static_cast<double>(sampler_.samples_taken())});
  return table;
}

}  // namespace muerp::daemon
