#include "analysis/loc.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace pstk::analysis {

LocReport AnalyzeSource(const std::string& label, const std::string& source,
                        const std::vector<std::string>& markers) {
  LocReport report;
  report.label = label;

  bool in_block_comment = false;
  std::istringstream lines(source);
  std::string line;
  while (std::getline(lines, line)) {
    // Strip comments to decide whether any code remains.
    std::string code;
    for (std::size_t i = 0; i < line.size();) {
      if (in_block_comment) {
        const auto close = line.find("*/", i);
        if (close == std::string::npos) {
          i = line.size();
        } else {
          in_block_comment = false;
          i = close + 2;
        }
        continue;
      }
      if (line.compare(i, 2, "//") == 0) break;
      if (line.compare(i, 2, "/*") == 0) {
        in_block_comment = true;
        i += 2;
        continue;
      }
      code += line[i];
      ++i;
    }
    if (TrimWhitespace(code).empty()) continue;
    ++report.code_lines;
    for (const std::string& marker : markers) {
      if (code.find(marker) != std::string::npos) {
        ++report.boilerplate_lines;
        break;
      }
    }
  }
  return report;
}

Result<LocReport> AnalyzeFile(const std::string& label,
                              const std::string& path,
                              const std::vector<std::string>& markers) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return AnalyzeSource(label, ExtractBenchmarkRegion(buffer.str()), markers);
}

namespace {

/// Offset of the first `marker` that starts a line (after indentation);
/// npos when there is none. A marker quoted mid-line, e.g. in a string
/// literal, does not delimit anything.
std::size_t FindMarkerLine(const std::string& source,
                           const std::string& marker) {
  for (std::size_t line = 0; line < source.size();) {
    const std::size_t eol = std::min(source.find('\n', line), source.size());
    const std::size_t text = source.find_first_not_of(" \t", line);
    if (text < eol && source.compare(text, marker.size(), marker) == 0) {
      return text;
    }
    line = eol + 1;
  }
  return std::string::npos;
}

}  // namespace

std::string ExtractBenchmarkRegion(const std::string& source) {
  const auto begin = FindMarkerLine(source, "// BENCHMARK-BEGIN");
  const auto end = FindMarkerLine(source, "// BENCHMARK-END");
  if (begin == std::string::npos || end == std::string::npos || end <= begin) {
    return source;
  }
  const auto start = source.find('\n', begin);
  if (start == std::string::npos || start >= end) return source;
  return source.substr(start + 1, end - start - 1);
}

}  // namespace pstk::analysis
