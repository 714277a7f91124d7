// Stage 3 of the pstk-lint pipeline, first half: the one lowering of a
// function. Program::Analyze builds it once per function and every later
// layer reads it; FunctionFlow (dataflow.h, the second half) derives its
// variable table and event stream from it.
//
// The lowering has two views of the same statements:
//   * the statement list — every statement in source order (a compound
//     statement before its children), each with its loop depth and its
//     innermost enclosing if/switch guard. Statements after an
//     unconditional return stay in this list;
//   * the control-flow graph — basic blocks of the reachable *leaf*
//     statements connected by edges that carry the branch condition they
//     were taken under. Loops lower to a head block with a body-taken
//     edge, a skip edge, and a back edge; switch statements lower like an
//     if with an empty else (conservative: some case ran, or none did).
//     Statements after an unconditional return are unreachable and are
//     not in any block.
//
// On top of the graph sits bounded *path enumeration*: every acyclic
// entry-to-exit path, with loops abstracted to zero-or-one iterations
// (each block may appear at most twice on a path, so a loop contributes
// its skip path and its body-once path). Consumers that need exactness
// under iteration — collective sequences, send/recv orders — treat any
// path step inside a loop body as "unknown" instead of trusting the
// abstraction. Enumeration is capped; overflow reports "don't know",
// never a truncated answer presented as complete.
//
// The path-sensitive divergence gate (lint.cc) consumes paths; Dump feeds
// the golden tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/parse.h"

namespace pstk::analysis {

class FunctionFlow;

/// Branch condition attached to a CFG edge: the if/switch/loop header
/// whose condition decides the edge.
struct CfgCond {
  const Stmt* stmt = nullptr;
  bool negated = false;  // edge taken when the condition is false
};

struct CfgEdge {
  int to = -1;
  std::optional<CfgCond> cond;  // nullopt: unconditional fall-through
  bool back_edge = false;       // loop repeat edge (body end -> head)
};

/// One basic block: a maximal run of leaf statements with no internal
/// control flow. Branch/loop header statements live in the block that
/// evaluates their condition.
struct CfgBlock {
  int id = 0;
  int loop_depth = 0;  // loop-body nesting of the block's statements
  std::vector<const Stmt*> stmts;
  std::vector<CfgEdge> succs;
};

/// One entry of the source-order statement list.
struct CfgStmt {
  const Stmt* stmt = nullptr;
  int loop_depth = 0;  // loop bodies enclosing the statement
  int guard = -1;      // index in Cfg::stmts() of the innermost enclosing
                       // if/switch; -1 when there is none
};

class Cfg {
 public:
  /// Lower `fn`. The Function must outlive the Cfg (the lowering holds
  /// Stmt pointers).
  static Cfg Build(const Function& fn);

  [[nodiscard]] const Function& fn() const { return *fn_; }

  /// Every statement in source order, unreachable ones included.
  [[nodiscard]] const std::vector<CfgStmt>& stmts() const { return stmts_; }

  [[nodiscard]] const std::vector<CfgBlock>& blocks() const {
    return blocks_;
  }
  [[nodiscard]] int entry() const { return entry_; }
  [[nodiscard]] int exit() const { return exit_; }

  /// One enumerated entry-to-exit path.
  struct Step {
    const Stmt* stmt = nullptr;
    int loop_depth = 0;  // > 0: this step sits inside an abstracted loop
  };
  struct Path {
    std::vector<Step> steps;
  };

  /// All entry-to-exit paths with loops abstracted to 0-or-1 iterations
  /// (each block appears at most twice per path). When more than
  /// `max_paths` exist, `*overflow` is set and the result is truncated —
  /// consumers must treat overflow as "not provable".
  [[nodiscard]] std::vector<Path> EnumeratePaths(
      std::size_t max_paths = 256, bool* overflow = nullptr) const;

  /// Deterministic text rendering for golden tests: one line per block
  /// with its statement lines and outgoing edges; `flow` marks the
  /// rank-divergent edge conditions.
  [[nodiscard]] std::string Dump(const FunctionFlow& flow) const;

 private:
  const Function* fn_ = nullptr;
  std::vector<CfgStmt> stmts_;
  std::vector<CfgBlock> blocks_;
  int entry_ = 0;
  int exit_ = 0;
};

}  // namespace pstk::analysis
