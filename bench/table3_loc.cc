// Table III: maintainability analysis — lines of code and boilerplate
// share of the four AnswersCount implementations (the example programs in
// examples/answerscount_*.cc, measured between their BENCHMARK-BEGIN/END
// markers, exactly like the paper counted benchmark bodies). A last table
// applies the same line count to each src/<subsystem> of this codebase.
//
//   ./build/bench/table3_loc [root=<repo root>]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "analysis/loc.h"
#include "bench_opts.h"
#include "common/config.h"
#include "common/table.h"

#ifndef PSTK_REPO_ROOT
#define PSTK_REPO_ROOT "."
#endif

using namespace pstk;

int main(int argc, char** argv) {
  // No simulation here, but accept the shared flags so every bench binary
  // has a uniform command line (an empty-but-valid trace is still written).
  bench::Observability::Instance().ParseFlags(&argc, argv);
  auto config = Config::FromArgs(argc, argv);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  const std::string root = config->GetString("root", PSTK_REPO_ROOT);

  struct Subject {
    const char* label;
    const char* file;
    std::vector<std::string> boilerplate_markers;
  };
  // Boilerplate = framework setup/teardown/plumbing, not algorithm logic.
  const Subject subjects[] = {
      {"OpenMP",
       "examples/answerscount_omp.cc",
       {"omp::Runtime", "ReadAll", "return;"}},
      {"MPI",
       "examples/answerscount_mpi.cc",
       {"File::OpenAll", "ReadLinesAtAll", "Reduce<", "comm.rank",
        "comm.size", "INT_MAX", "int32_t", "return;"}},
      {"Hadoop MR",
       "examples/answerscount_mr.cc",
       {"MrEngine", "JobConf", "conf.", "RunJob", "mr::Emitter"}},
      {"Spark",
       "examples/answerscount_spark.cc",
       {"TextFile", "return;"}},
  };

  std::printf("Table III — Lines of code / boilerplate of the AnswersCount "
              "implementations\n\n");
  Table table;
  table.SetHeader({"framework", "code lines", "boilerplate",
                   "boilerplate %", "lint findings"});
  bool ok = true;
  for (const Subject& subject : subjects) {
    auto report = analysis::AnalyzeFile(subject.label,
                                        root + "/" + subject.file,
                                        subject.boilerplate_markers);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", subject.label,
                   report.status().ToString().c_str());
      ok = false;
      continue;
    }
    // Maintainability has a correctness face too: how many statically
    // detectable misuse patterns does each paradigm's version carry?
    auto findings = analysis::LintFile(root + "/" + subject.file);
    if (!findings.ok()) {
      std::fprintf(stderr, "%s: %s\n", subject.label,
                   findings.status().ToString().c_str());
      ok = false;
      continue;
    }
    table.Row()
        .Cell(subject.label)
        .Cell(std::int64_t{report->code_lines})
        .Cell(std::int64_t{report->boilerplate_lines})
        .Cell(100.0 * report->BoilerplateShare(), 0)
        .Cell(static_cast<std::int64_t>(findings->size()));
  }
  table.Print();

  // The same lint lens over the framework *implementations*: how many
  // statically detectable misuse patterns live in each paradigm runtime
  // itself (whole-subtree interprocedural scan; warnings included).
  std::printf("\nFramework runtimes (src/) under the same lint rules:\n\n");
  Table fw;
  fw.SetHeader({"framework runtime", "lint findings"});
  const struct {
    const char* label;
    const char* dir;
  } runtimes[] = {
      {"src/omp (OpenMP-like)", "src/omp"},
      {"src/mpi (MPI-like)", "src/mpi"},
      {"src/mr (Hadoop MR-like)", "src/mr"},
      {"src/spark (Spark-like)", "src/spark"},
  };
  for (const auto& rt : runtimes) {
    auto findings = analysis::LintTree({root + "/" + rt.dir});
    if (!findings.ok()) {
      std::fprintf(stderr, "%s: %s\n", rt.label,
                   findings.status().ToString().c_str());
      ok = false;
      continue;
    }
    fw.Row().Cell(rt.label).Cell(
        static_cast<std::int64_t>(findings->size()));
  }
  fw.Print();

  std::printf(
      "\nExpected shape (paper): the OpenMP version is smallest (pragma-style\n"
      "parallelism over a serial kernel); MPI carries the most explicit\n"
      "distribution plumbing (chunking, collective I/O, reductions);\n"
      "Hadoop hides control flow but demands job scaffolding; Spark's\n"
      "transformations read like the logical dataflow.\n");

  // The simulator's own size, counted the same way (code lines of every
  // .cc/.h file), so a refactor's effect on each subsystem is measurable.
  std::printf("\nCode lines per src/ subsystem:\n\n");
  namespace fs = std::filesystem;
  std::vector<fs::path> subsystems;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root + "/src", ec)) {
    if (entry.is_directory()) subsystems.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "%s/src: %s\n", root.c_str(), ec.message().c_str());
    ok = false;
  }
  std::sort(subsystems.begin(), subsystems.end());
  Table sizes;
  sizes.SetHeader({"subsystem", "code lines"});
  std::int64_t total = 0;
  for (const fs::path& dir : subsystems) {
    const std::string label = "src/" + dir.filename().string();
    std::int64_t lines = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      const fs::path ext = entry.path().extension();
      if (!entry.is_regular_file() || (ext != ".cc" && ext != ".h")) continue;
      auto report = analysis::AnalyzeFile(label, entry.path().string(), {});
      if (!report.ok()) {
        std::fprintf(stderr, "%s: %s\n", label.c_str(),
                     report.status().ToString().c_str());
        ok = false;
        continue;
      }
      lines += report->code_lines;
    }
    sizes.Row().Cell(label).Cell(lines);
    total += lines;
  }
  sizes.Row().Cell("total").Cell(total);
  sizes.Print();
  if (!bench::Observability::Instance().Finish()) ok = false;
  return ok ? 0 : 1;
}
