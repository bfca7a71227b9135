// vetl_bench: the V-ETL benchmark binary (perfbench/run.py builds and runs
// it). Usage:
//
//   vetl_bench --workload ingest-covid|fleet-mixed|serve-churn --seed N
//              --seconds S --trace 0|1 [--out-dir DIR]
//
// It first checks its own statistics against hand-computed values. With
// --trace 0 it runs the named workload untraced and reports the end-to-end
// metrics; with --trace 1 it runs the traced per-layer pass, which covers
// every layer and so drives all three workloads, writes the spans to
// DIR/trace-<workload>.json (Chrome trace-event format) and reports the
// per-layer metrics. The last line of stdout is the JSON result object.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, vetl::RunArgs* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "vetl_bench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "vetl_bench: flag without a value\n");
    return false;
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  vetl::RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vetl_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  std::string failure;
  if (!vetl::SelfTest(&failure)) {
    std::fprintf(stderr, "vetl_bench: statistics self-test failed: %s\n",
                 failure.c_str());
    return 3;
  }

  using RunFn = void (*)(const vetl::RunArgs&, vetl::Report*);
  RunFn run = nullptr;
  if (args.workload == "ingest-covid") run = &vetl::RunIngestCovid;
  if (args.workload == "fleet-mixed") run = &vetl::RunFleetMixed;
  if (args.workload == "serve-churn") run = &vetl::RunServeChurn;
  if (run == nullptr) {
    std::fprintf(stderr, "vetl_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  vetl::Report report;
  if (!args.trace) {
    run(args, &report);
  } else {
    vetl::Tracer tracer(true);
    vetl::TraceIngestCovid(args, &tracer, &report);
    vetl::TraceFleetMixed(args, &tracer, &report);
    vetl::TraceServeChurn(args, &tracer, &report);
    std::string path = args.out_dir + "/trace-" + args.workload + ".json";
    report.Check(tracer.WriteChromeTrace(path), "write " + path);
    vetl::PrintLayerTable(
        "self time per layer (" + std::to_string(tracer.size()) +
            " spans, written to " + path + ")",
        tracer);
  }
  std::printf("%s\n", report.Operations().c_str());
  std::printf("%zu checks, %s\n", report.checks(),
              report.correct() ? "all passed" : "SOME FAILED");
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return 0;
}
