// Source-code maintainability metrics for the paper's Table III: lines of
// code and the share of boilerplate (setup/teardown/plumbing) per
// framework implementation of the same benchmark.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"

namespace pstk::analysis {

struct LocReport {
  std::string label;
  int code_lines = 0;        // non-blank, non-comment lines
  int boilerplate_lines = 0; // subset matching the boilerplate markers
  [[nodiscard]] double BoilerplateShare() const {
    return code_lines == 0
               ? 0.0
               : static_cast<double>(boilerplate_lines) /
                     static_cast<double>(code_lines);
  }
};

/// Count code lines in C/C++-style source text. A line counts when it has
/// content outside of // and /* */ comments. A counted line is
/// boilerplate when it contains any marker substring (markers describe a
/// framework's setup/teardown/plumbing calls).
LocReport AnalyzeSource(const std::string& label, const std::string& source,
                        const std::vector<std::string>& boilerplate_markers);

/// Read a file from the host filesystem (benchmark sources analyze
/// themselves) and run AnalyzeSource on it.
Result<LocReport> AnalyzeFile(const std::string& label,
                              const std::string& path,
                              const std::vector<std::string>& markers);

/// Extract the region between "// BENCHMARK-BEGIN" and "// BENCHMARK-END"
/// markers, each starting its own line (so shared scaffolding in example
/// files is excluded); returns the whole source if the markers are absent.
std::string ExtractBenchmarkRegion(const std::string& source);

}  // namespace pstk::analysis
