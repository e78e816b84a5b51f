// Overload-scenario sweep driver (ISSUE 7): runs the deterministic
// scenarios from bench/scenarios/scenario.hpp and emits their integer-only
// JSON artifacts for the golden gate.
//
//   $ ./bench/overload_scenarios --scenario noisy_neighbor --control on
//   $ ./bench/overload_scenarios --scenario all --threads 2 --json out.json
//
// --scenario all concatenates every scenario's result (control off then
// on) into one JSON array, the artifact tools/golden/overload_slo.json
// pins. Byte-identical across --threads 1/2/4 by construction.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "scenarios/scenario.hpp"

using namespace pd;

int main(int argc, char** argv) {
  std::string scenario = "all";
  std::string control = "both";
  std::string json_path;
  std::string ledger_path;
  control::OverloadOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario = argv[++i];
    } else if (std::strcmp(argv[i], "--control") == 0 && i + 1 < argc) {
      control = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      opts.threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      opts.seconds = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opts.chaos_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ledger-json") == 0 && i + 1 < argc) {
      ledger_path = argv[++i];
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      const char* p = argv[++i];
      if (std::strcmp(p, "burn") == 0) {
        opts.shed_policy = control::ShedPolicy::kBurnRate;
      } else if (std::strcmp(p, "blame") == 0) {
        opts.shed_policy = control::ShedPolicy::kBlame;
      } else {
        std::fprintf(stderr, "unknown --policy \"%s\" (burn|blame)\n", p);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scenario <name|all>] [--control on|off|both] "
                   "[--policy burn|blame] [--threads N] [--seconds S] "
                   "[--seed K] [--json FILE] [--ledger-json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<control::OverloadScenario> scenarios;
  if (scenario == "all") {
    scenarios = control::all_scenarios();
  } else {
    scenarios = {control::parse_scenario(scenario)};
  }
  std::vector<bool> columns;
  if (control == "both") {
    columns = {false, true};
  } else if (control == "on") {
    columns = {true};
  } else if (control == "off") {
    columns = {false};
  } else {
    std::fprintf(stderr, "unknown --control \"%s\"\n", control.c_str());
    return 2;
  }

  std::string json = "[\n";
  std::string ledger = "[\n";
  bool first = true;
  for (control::OverloadScenario s : scenarios) {
    for (bool on : columns) {
      opts.scenario = s;
      opts.control = on;
      const control::OverloadResult r = control::run_overload(opts);
      std::printf("%s\n", r.table().c_str());
      if (!first) {
        json += ",\n";
        ledger += ",\n";
      }
      first = false;
      json += r.json();
      ledger += r.ledger_json;
      if (!r.zero_loss) {
        std::fprintf(stderr, "FAIL: %s control=%d lost requests silently\n",
                     r.scenario.c_str(), on ? 1 : 0);
        return 1;
      }
    }
  }
  json += "]\n";
  ledger += "]\n";

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("overload artifact -> %s\n", json_path.c_str());
  }
  if (!ledger_path.empty()) {
    std::FILE* f = std::fopen(ledger_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", ledger_path.c_str());
      return 1;
    }
    std::fwrite(ledger.data(), 1, ledger.size(), f);
    std::fclose(f);
    std::printf("ledger artifact -> %s\n", ledger_path.c_str());
  }
  return 0;
}
