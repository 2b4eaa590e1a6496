// muerpctl — command-line front end for the muerp library.
//
// Subcommands (run `muerpctl help <cmd>` for the per-command flags):
//   generate   build a random or reference network and write it to disk
//   info       summarize a network file
//   analyze    network-science metrics (clustering, diameter, bridges, ...)
//   screen     run the polynomial feasibility screens
//   route      route multi-user entanglement and report the tree
//   plan       minimum uniform switch budget (binary search over Alg-3)
//   simulate   Monte-Carlo validate a routed plan
//   sweep      run a full scenario from a config file (paper-style table)
//   ctl        drive a live muerpd over POST /api/v1/ctl
//
// Examples:
//   muerpctl generate --topology waxman --switches 50 --users 10 --out n.txt
//   muerpctl generate --topology nsfnet --users 5 --out n.txt
//   muerpctl route --net n.txt --algorithm alg3 --local-search --dot plan.dot
//   muerpctl screen --net n.txt
//   muerpctl simulate --net n.txt --algorithm alg4 --rounds 100000
//   muerpctl sweep --config scenario.cfg --algorithms alg4,alg4ls,annealing
//   muerpctl ctl status --endpoint 127.0.0.1:9464
//   muerpctl ctl set arrival-rate 0.2
//   muerpctl ctl get lifetime
//   muerpctl ctl drain
//
// Exit codes: 0 success, 1 command failure (including a ctl envelope with
// "ok": false), 2 usage error (typo'd flag, unknown subcommand, transport
// failure reaching the daemon). `--help` exits 0.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "muerp.hpp"

namespace {

using namespace muerp;

int fail(const std::string& message) {
  std::cerr << "muerpctl: " << message << '\n';
  return 1;
}

int usage_fail(const std::string& message) {
  std::cerr << "muerpctl: " << message << '\n';
  return 2;
}

std::optional<net::QuantumNetwork> load(const std::string& path) {
  if (path.empty()) {
    fail("--net <file> is required");
    return std::nullopt;
  }
  auto result = net::load_network_file(path);
  if (std::holds_alternative<std::string>(result)) {
    fail("cannot load " + path + ": " + std::get<std::string>(result));
    return std::nullopt;
  }
  return std::move(std::get<net::QuantumNetwork>(result));
}

// ---------------------------------------------------------------------------
// Flag table: the single source for CliParser registration AND the
// per-command flag listings `muerpctl help <cmd>` prints. A subcommand's
// `flags` field names rows of this table.
struct FlagDef {
  const char* name;
  const char* help;
  const char* default_value;
};

const FlagDef kFlagDefs[] = {
    {"topology", "waxman|ws|volchenkov|nsfnet|geant", "waxman"},
    {"switches", "switch count (random topologies)", "50"},
    {"users", "user count", "10"},
    {"qubits", "qubits per switch", "4"},
    {"degree", "average degree (random topologies)", "6"},
    {"area", "deployment side in km", "10000"},
    {"alpha", "fiber attenuation 1/km", ""},
    {"swap", "BSM success probability", ""},
    {"seed", "random seed", "1"},
    {"out", "output file (generate: network; ctl snapshot: document)", ""},
    {"net", "input network file", ""},
    {"algorithm", "registry name (route/simulate)", "alg3"},
    {"algorithms", "comma list of registry names (sweep)", ""},
    {"telemetry", "write per-algorithm telemetry JSON (sweep)", ""},
    {"trace", "write a Chrome trace of the whole run", ""},
    {"log-level", "structured event log: debug|info|warn|error|off", "warn"},
    {"log-format", "structured event log rendering: text|json", "text"},
    {"local-search", "apply the exchange pass after routing", ""},
    {"dot", "write Graphviz DOT of the plan", ""},
    {"svg", "write an SVG rendering of the plan", ""},
    {"rounds", "Monte-Carlo rounds (simulate)", "100000"},
    {"config", "scenario config file (sweep)", ""},
    {"min-rate", "rate floor for the plan subcommand", "0"},
    {"endpoint", "muerpd control endpoint, host:port or port (ctl)",
     "127.0.0.1:9464"},
    {"token", "bearer token for the ctl API (muerpd --ctl-token)", ""},
};

const FlagDef* find_flag_def(const std::string& name) {
  for (const FlagDef& def : kFlagDefs) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

int cmd_generate(const support::CliParser& cli) {
  const std::string out = cli.get_string("out");
  if (out.empty()) return fail("generate needs --out <file>");
  const auto switches =
      static_cast<std::size_t>(cli.get_int("switches").value_or(50));
  const auto users =
      static_cast<std::size_t>(cli.get_int("users").value_or(10));
  const int qubits = static_cast<int>(cli.get_int("qubits").value_or(4));
  const double degree = cli.get_double("degree").value_or(6.0);
  const double side = cli.get_double("area").value_or(10000.0);
  support::Rng rng(cli.get_int("seed").value_or(1));

  const std::string kind = cli.get_string("topology");
  topology::SpatialGraph topo;
  if (kind == "waxman" || kind == "ws" || kind == "volchenkov") {
    experiment::Scenario s;
    s.topology = kind == "waxman" ? experiment::TopologyKind::kWaxman
                 : kind == "ws"   ? experiment::TopologyKind::kWattsStrogatz
                                  : experiment::TopologyKind::kVolchenkov;
    s.switch_count = switches;
    s.user_count = users;
    s.qubits_per_switch = qubits;
    s.average_degree = degree;
    s.area_side_km = side;
    s.seed = static_cast<std::uint64_t>(cli.get_int("seed").value_or(1));
    s.attenuation = cli.get_double("alpha").value_or(1e-4);
    s.swap_success = cli.get_double("swap").value_or(0.9);
    const auto inst = experiment::instantiate(s, 0);
    if (!net::save_network_file(inst.network, out)) {
      return fail("cannot write " + out);
    }
  } else {
    // Reference backbones: all nodes placed, then users drawn randomly.
    const topology::ReferenceTopology* reference = nullptr;
    try {
      reference = &topology::reference_by_name(kind);
    } catch (const std::out_of_range&) {
      return fail("unknown --topology '" + kind +
                  "' (waxman|ws|volchenkov|nsfnet|geant)");
    }
    topo = topology::instantiate_reference(*reference, {side, side * 0.6});
    net::PhysicalParams physical;
    physical.attenuation = cli.get_double("alpha").value_or(2e-4);
    physical.swap_success = cli.get_double("swap").value_or(0.9);
    const auto network =
        net::assign_random_users(std::move(topo), users, qubits, physical, rng);
    if (!net::save_network_file(network, out)) {
      return fail("cannot write " + out);
    }
  }
  std::cout << "wrote " << out << '\n';
  return 0;
}

int cmd_info(const support::CliParser& cli) {
  const auto network = load(cli.get_string("net"));
  if (!network) return 1;
  std::cout << "nodes      : " << network->node_count() << " ("
            << network->users().size() << " users, "
            << network->switches().size() << " switches)\n";
  std::cout << "fibers     : " << network->graph().edge_count()
            << " (average degree " << network->graph().average_degree()
            << ")\n";
  int total_qubits = 0;
  for (net::NodeId sw : network->switches()) total_qubits += network->qubits(sw);
  std::cout << "qubits     : " << total_qubits << " across switches ("
            << total_qubits / 2 << " channel slots)\n";
  std::cout << "physical   : alpha=" << network->physical().attenuation
            << " /km, q=" << network->physical().swap_success << '\n';
  std::cout << "users      :";
  for (net::NodeId u : network->users()) std::cout << ' ' << u;
  std::cout << '\n';
  return 0;
}

/// Routes through the RouterRegistry: any registered name works, including
/// the satellites (alg4ls, annealing) and nfusion (star-shaped tree whose
/// rate follows the fusion model rather than the channel-rate product).
net::EntanglementTree route_with(const std::string& algorithm,
                                 const net::QuantumNetwork& network,
                                 support::Rng& rng, std::string* error) {
  const routing::Router* router =
      routing::RouterRegistry::instance().find(algorithm);
  if (router == nullptr) {
    *error = "unknown --algorithm '" + algorithm + "' (" +
             routing::RouterRegistry::instance().known_names() + ")";
    return {};
  }
  routing::RoutingRequest request;
  request.network = &network;
  request.rng = &rng;
  return router->route_tree(request);
}

/// Parses the --algorithms comma list; empty selects the paper's five.
/// Returns false (with *error set) when a name is not registered.
bool parse_algorithms(const std::string& list, std::vector<std::string>* out,
                      std::string* error) {
  if (list.empty()) {
    const auto names = experiment::paper_algorithm_names();
    out->assign(names.begin(), names.end());
    return true;
  }
  const auto& registry = routing::RouterRegistry::instance();
  std::string name;
  std::istringstream stream(list);
  while (std::getline(stream, name, ',')) {
    if (name.empty()) continue;
    if (!registry.contains(name)) {
      *error = "unknown algorithm '" + name + "' in --algorithms (" +
               registry.known_names() + ")";
      return false;
    }
    out->push_back(name);
  }
  if (out->empty()) {
    *error = "--algorithms selected nothing";
    return false;
  }
  return true;
}

int cmd_route(const support::CliParser& cli) {
  const auto network = load(cli.get_string("net"));
  if (!network) return 1;
  support::Rng rng(cli.get_int("seed").value_or(1));
  const std::string algorithm = cli.get_string("algorithm");
  std::string error;
  auto tree = route_with(algorithm, *network, rng, &error);
  if (!error.empty()) return fail(error);

  if (cli.get_bool("local-search") && tree.feasible) {
    const auto stats = routing::improve_tree(*network, network->users(), tree);
    std::cout << "local search: " << stats.exchanges << " exchanges over "
              << stats.sweeps << " sweeps\n";
  }
  if (!tree.feasible) {
    std::cout << "infeasible (rate 0)\n";
    const auto screen =
        routing::screen_feasibility(*network, network->users());
    std::cout << "screen verdict: "
              << routing::feasibility_name(screen.verdict) << " — "
              << screen.reason << '\n';
    return 2;
  }
  // N-Fusion's rate follows the fusion model, not the channel-rate product
  // validate_tree checks, so the identity intentionally does not apply.
  const std::string validation =
      algorithm == "nfusion"
          ? std::string()
          : net::validate_tree(*network, network->users(), tree);
  std::cout << "rate " << support::format_rate(tree.rate) << " over "
            << tree.channels.size() << " channels ("
            << (validation.empty() ? "valid" : validation) << ")\n";
  for (const auto& channel : tree.channels) {
    std::cout << "  " << channel.source() << " -> "
              << channel.destination() << "  rate "
              << support::format_rate(channel.rate) << "  via "
              << channel.switch_count() << " switches\n";
  }
  if (const std::string dot = cli.get_string("dot"); !dot.empty()) {
    std::ofstream out(dot);
    out << net::to_dot(*network, &tree);
    std::cout << "DOT written to " << dot << '\n';
  }
  if (const std::string svg = cli.get_string("svg"); !svg.empty()) {
    std::ofstream out(svg);
    out << net::to_svg(*network, &tree);
    std::cout << "SVG written to " << svg << '\n';
  }
  return 0;
}

int cmd_sweep(const support::CliParser& cli) {
  const std::string path = cli.get_string("config");
  if (path.empty()) return fail("sweep needs --config <file>");
  auto parsed = experiment::parse_scenario_file(path);
  if (std::holds_alternative<std::string>(parsed)) {
    return fail(path + ": " + std::get<std::string>(parsed));
  }
  const auto& scenario = std::get<experiment::Scenario>(parsed);

  std::vector<std::string> algorithms;
  std::string error;
  if (!parse_algorithms(cli.get_string("algorithms"), &algorithms, &error)) {
    return fail(error);
  }
  const auto& registry = routing::RouterRegistry::instance();

  std::cout << "# effective scenario\n"
            << experiment::scenario_to_config(scenario) << '\n';
  const auto result = experiment::run_scenario_parallel(scenario, algorithms);
  std::vector<std::string> columns{"metric"};
  for (const std::string& name : algorithms) {
    columns.emplace_back(registry.at(name).display_name());
  }
  support::Table table("scenario sweep (" + path + ")", std::move(columns));
  std::vector<double> means;
  std::vector<double> fractions;
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    means.push_back(result.mean_rate(a));
    fractions.push_back(result.feasible_fraction(a));
  }
  table.add_row("mean rate", std::move(means));
  table.add_row("feasible fraction", std::move(fractions));
  std::cout << table;

  // --telemetry: one JSON object per algorithm, keyed by registry name,
  // holding the counters/spans that algorithm accumulated over the sweep.
  if (const std::string out = cli.get_string("telemetry"); !out.empty()) {
    std::ofstream file(out);
    if (!file) return fail("cannot write " + out);
    file << "{\n";
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      file << "  \"" << algorithms[a] << "\": ";
      support::telemetry::write_json(file, result.telemetry[a]);
      file << (a + 1 < algorithms.size() ? "," : "") << '\n';
    }
    file << "}\n";
    std::cout << "telemetry written to " << out << '\n';
    const auto spans = support::telemetry::spans_table(
        result.telemetry.back(),
        "spans: " + registry.at(algorithms.back()).display_name());
    std::cout << spans;
  }
  return 0;
}

int cmd_analyze(const support::CliParser& cli) {
  const auto network = load(cli.get_string("net"));
  if (!network) return 1;
  const auto degrees = topology::degree_statistics(network->graph());
  std::cout << "degree      : mean " << degrees.mean << ", min "
            << degrees.min << ", max " << degrees.max << " (stddev "
            << degrees.stddev << ")\n";
  std::cout << "clustering  : "
            << topology::average_clustering_coefficient(network->graph())
            << '\n';
  std::cout << "path length : "
            << topology::characteristic_path_length(network->graph())
            << " hops (diameter "
            << topology::hop_diameter(network->graph()) << ")\n";
  std::cout << "small-world : sigma = "
            << topology::small_world_sigma(network->graph()) << '\n';
  std::cout << "assortativity: "
            << topology::degree_assortativity(network->graph()) << '\n';
  const auto bridges = topology::find_bridges(network->graph());
  std::cout << "bridges     : " << bridges.size() << " of "
            << network->graph().edge_count() << " fibers are critical";
  if (!bridges.empty()) {
    std::cout << " (";
    for (std::size_t i = 0; i < bridges.size() && i < 8; ++i) {
      const auto& e = network->graph().edge(bridges[i]);
      std::cout << (i ? ", " : "") << e.a << "-" << e.b;
    }
    if (bridges.size() > 8) std::cout << ", ...";
    std::cout << ')';
  }
  std::cout << '\n';
  return 0;
}

int cmd_screen(const support::CliParser& cli) {
  const auto network = load(cli.get_string("net"));
  if (!network) return 1;
  const auto report = routing::screen_feasibility(*network, network->users());
  std::cout << routing::feasibility_name(report.verdict) << ": "
            << report.reason << '\n';
  return report.verdict == routing::Feasibility::kInfeasible ? 2 : 0;
}

int cmd_plan(const support::CliParser& cli) {
  const auto network = load(cli.get_string("net"));
  if (!network) return 1;
  const double min_rate = cli.get_double("min-rate").value_or(0.0);
  const auto result =
      routing::min_uniform_qubits(*network, network->users(), min_rate);
  if (!result) {
    std::cout << "no uniform budget up to 64 qubits/switch meets the goal\n";
    return 2;
  }
  std::cout << "minimum uniform budget: " << result->qubits_per_switch
            << " qubits/switch\n"
            << "achieved rate         : "
            << support::format_rate(result->tree.rate) << " over "
            << result->tree.channels.size() << " channels\n";
  return 0;
}

int cmd_simulate(const support::CliParser& cli) {
  const auto network = load(cli.get_string("net"));
  if (!network) return 1;
  support::Rng rng(cli.get_int("seed").value_or(1));
  std::string error;
  const auto tree =
      route_with(cli.get_string("algorithm"), *network, rng, &error);
  if (!error.empty()) return fail(error);
  if (!tree.feasible) return fail("routing infeasible; nothing to simulate");
  const auto rounds =
      static_cast<std::uint64_t>(cli.get_int("rounds").value_or(100000));
  const sim::MonteCarloSimulator mc(*network);
  const auto est = mc.estimate_tree_rate(tree, rounds, rng);
  std::cout << "analytic Eq.(2): " << support::format_rate(tree.rate) << '\n'
            << "monte-carlo    : " << support::format_rate(est.rate) << " +- "
            << support::format_rate(est.std_error) << "  (" << est.successes
            << "/" << est.rounds << " windows)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// ctl: drive a live muerpd through its versioned command API.

/// Renders a command-line token as the JSON value the ctl API expects:
/// numbers and booleans pass through typed, everything else is a string.
std::string token_to_json(const std::string& text) {
  if (text == "true" || text == "false" || text == "null") return text;
  if (!text.empty()) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() + text.size()) return ctl::json_number(value);
  }
  return ctl::json_quote(text);
}

/// Renders trailing `key=value` positionals as a JSON args object (what the
/// sessions/slo verbs take). Empty string on a token with no '='; "{}" when
/// there were none.
std::string kv_args_json(const std::vector<std::string>& pos,
                         std::size_t first) {
  std::string json = "{";
  for (std::size_t i = first; i < pos.size(); ++i) {
    const std::size_t eq = pos[i].find('=');
    if (eq == std::string::npos || eq == 0) return std::string();
    if (json.size() > 1) json += ", ";
    json += ctl::json_quote(pos[i].substr(0, eq)) + ": " +
            token_to_json(pos[i].substr(eq + 1));
  }
  return json + "}";
}

int cmd_ctl(const support::CliParser& cli) {
  const auto& pos = cli.positional();
  if (pos.size() < 2) {
    return usage_fail(
        "ctl needs a verb: status | set <name> <value> | get <name> | "
        "pause | resume | drain | snapshot | sessions [k=v ...] | "
        "session <id> [json|trace] | topology | links [k=v ...] | "
        "explain <id> | slo [list | set k=v ... | remove <name>] | "
        "commands");
  }
  const std::string& verb = pos[1];
  std::string args_json;
  if (verb == "set") {
    if (pos.size() != 4) {
      return usage_fail("usage: muerpctl ctl set <name> <value>");
    }
    args_json = "{\"name\": " + ctl::json_quote(pos[2]) +
                ", \"value\": " + token_to_json(pos[3]) + "}";
  } else if (verb == "get") {
    if (pos.size() != 3) return usage_fail("usage: muerpctl ctl get <name>");
    args_json = "{\"name\": " + ctl::json_quote(pos[2]) + "}";
  } else if (verb == "snapshot") {
    if (const std::string out = cli.get_string("out"); !out.empty()) {
      args_json = "{\"path\": " + ctl::json_quote(out) + "}";
    }
  } else if (verb == "sessions") {
    args_json = kv_args_json(pos, 2);
    if (args_json.empty()) {
      return usage_fail(
          "usage: muerpctl ctl sessions [state=<s>] [lane=<n>] [alg=<name>] "
          "[min-slot=<n>] [max-slot=<n>] [limit=<n>]");
    }
    if (args_json == "{}") args_json.clear();
  } else if (verb == "session") {
    if (pos.size() < 3 || pos.size() > 4) {
      return usage_fail("usage: muerpctl ctl session <id> [json|trace]");
    }
    args_json = "{\"id\": " + token_to_json(pos[2]);
    if (pos.size() == 4) {
      args_json += ", \"format\": " + ctl::json_quote(pos[3]);
    }
    args_json += "}";
  } else if (verb == "links") {
    args_json = kv_args_json(pos, 2);
    if (args_json.empty()) {
      return usage_fail(
          "usage: muerpctl ctl links [sort=util|losses] [limit=<n>]");
    }
    if (args_json == "{}") args_json.clear();
  } else if (verb == "explain") {
    if (pos.size() != 3) {
      return usage_fail("usage: muerpctl ctl explain <id>");
    }
    args_json = "{\"id\": " + token_to_json(pos[2]) + "}";
  } else if (verb == "slo") {
    if (pos.size() == 2 || (pos.size() == 3 && pos[2] == "list")) {
      // list is the default action — no args needed
    } else if (pos[2] == "remove") {
      if (pos.size() != 4) {
        return usage_fail("usage: muerpctl ctl slo remove <name>");
      }
      args_json = "{\"action\": \"remove\", \"name\": " +
                  ctl::json_quote(pos[3]) + "}";
    } else if (pos[2] == "set") {
      const std::string body = kv_args_json(pos, 3);
      if (body.empty() || body == "{}") {
        return usage_fail(
            "usage: muerpctl ctl slo set name=<rule> [kind=<k>] "
            "[metric=<m>] [denominator=<d>] [quantile=<q>] "
            "[window-seconds=<s>] [op=above|below] [threshold=<t>] "
            "[for=<n>] [severity=<s>]");
      }
      args_json = "{\"action\": \"set\", " + body.substr(1);
    } else {
      return usage_fail(
          "usage: muerpctl ctl slo [list | set k=v ... | remove <name>]");
    }
  } else if (pos.size() != 2) {
    return usage_fail("ctl " + verb + " takes no arguments");
  }

  ctl::HttpResult result;
  std::string error;
  if (!ctl::ctl_request(cli.get_string("endpoint"), verb, args_json, &result,
                        &error, cli.get_string("token"))) {
    return usage_fail("cannot reach " + cli.get_string("endpoint") + ": " +
                      error);
  }
  // The envelope is the contract: print it verbatim (it is one line of
  // JSON) and turn "ok" into the exit code.
  std::cout << result.body;
  if (!result.body.empty() && result.body.back() != '\n') std::cout << '\n';
  const support::json::ParseResult envelope = support::json::parse(result.body);
  const support::json::Value& ok = envelope.value["ok"];
  return envelope.ok() && ok.is_bool() && ok.bool_value ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Dispatch table: one row per subcommand — name, summary (the unknown-
// command listing), flag spec (`help <cmd>`), handler.
struct Subcommand {
  const char* name;
  const char* summary;
  std::vector<const char*> flags;
  int (*handler)(const support::CliParser&);
};

const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> kTable = {
      {"generate", "build a random or reference network and write it to disk",
       {"topology", "switches", "users", "qubits", "degree", "area", "alpha",
        "swap", "seed", "out"},
       &cmd_generate},
      {"info", "summarize a network file", {"net"}, &cmd_info},
      {"analyze",
       "network-science metrics (clustering, diameter, bridges, ...)",
       {"net"},
       &cmd_analyze},
      {"screen", "run the polynomial feasibility screens", {"net"},
       &cmd_screen},
      {"route", "route multi-user entanglement and report the tree",
       {"net", "algorithm", "seed", "local-search", "dot", "svg"},
       &cmd_route},
      {"plan", "minimum uniform switch budget (binary search over Alg-3)",
       {"net", "min-rate"},
       &cmd_plan},
      {"simulate", "Monte-Carlo validate a routed plan",
       {"net", "algorithm", "seed", "rounds"},
       &cmd_simulate},
      {"sweep", "run a full scenario from a config file (paper-style table)",
       {"config", "algorithms", "telemetry", "trace"},
       &cmd_sweep},
      {"ctl",
       "drive a live muerpd: status | set | get | pause | resume | drain | "
       "snapshot | sessions | session | topology | links | explain | slo | "
       "commands",
       {"endpoint", "out", "token"},
       &cmd_ctl},
  };
  return kTable;
}

const Subcommand* find_subcommand(const std::string& name) {
  for (const Subcommand& command : subcommands()) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

void print_subcommand_list(std::ostream& os) {
  os << "subcommands:\n";
  for (const Subcommand& command : subcommands()) {
    os << "  " << command.name;
    for (std::size_t pad = std::string(command.name).size(); pad < 10; ++pad) {
      os << ' ';
    }
    os << command.summary << '\n';
  }
  os << "run `muerpctl help <cmd>` for a command's flags\n";
}

int cmd_help(const support::CliParser& cli) {
  const auto& pos = cli.positional();
  if (pos.size() < 2) {
    print_subcommand_list(std::cout);
    return 0;
  }
  const Subcommand* command = find_subcommand(pos[1]);
  if (command == nullptr) {
    std::cerr << "muerpctl: unknown command '" << pos[1] << "'\n";
    print_subcommand_list(std::cerr);
    return 2;
  }
  std::cout << "muerpctl " << command->name << " — " << command->summary
            << "\n\nflags:\n";
  for (const char* name : command->flags) {
    const FlagDef* def = find_flag_def(name);
    if (def == nullptr) continue;
    std::cout << "  --" << def->name;
    if (def->default_value[0] != '\0') {
      std::cout << " (default: " << def->default_value << ")";
    }
    std::cout << "\n      " << def->help << '\n';
  }
  std::cout << "  --log-level, --log-format, --trace apply to every "
               "subcommand\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli(
      "muerpctl — multi-user entanglement routing toolbox");
  for (const FlagDef& def : kFlagDefs) {
    cli.add_flag(def.name, def.help, def.default_value);
  }
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;

  if (cli.positional().empty()) {
    std::cerr << cli.usage(argv[0]) << '\n';
    print_subcommand_list(std::cerr);
    return 2;
  }
  const std::string& name = cli.positional()[0];
  if (name == "help") return cmd_help(cli);
  const Subcommand* command = find_subcommand(name);
  if (command == nullptr) {
    std::cerr << "muerpctl: unknown command '" << name << "'\n";
    print_subcommand_list(std::cerr);
    return 2;
  }

  // Structured event log knobs; the default (warn, text) keeps existing
  // output unchanged.
  support::telemetry::LogLevel log_level;
  if (!support::telemetry::parse_log_level(cli.get_string("log-level"),
                                           &log_level)) {
    return fail("unknown --log-level '" + cli.get_string("log-level") +
                "' (debug|info|warn|error|off)");
  }
  support::telemetry::set_log_level(log_level);
  support::telemetry::LogFormat log_format;
  if (!support::telemetry::parse_log_format(cli.get_string("log-format"),
                                            &log_format)) {
    return fail("unknown --log-format '" + cli.get_string("log-format") +
                "' (text|json)");
  }
  support::telemetry::set_log_format(log_format);

  // --trace records every span of the run as Chrome trace events
  // (chrome://tracing); a no-op in MUERP_TELEMETRY=OFF builds.
  const std::string trace = cli.get_string("trace");
  if (!trace.empty()) support::telemetry::set_tracing(true);

  const int status = command->handler(cli);

  if (!trace.empty()) {
    support::telemetry::set_tracing(false);
    const long events = support::telemetry::write_chrome_trace_file(trace);
    if (events < 0) return fail("cannot write trace file " + trace);
    std::cerr << "wrote " << events << " trace events to " << trace
              << " (load in chrome://tracing)\n";
  }
  return status;
}
