// Stage 3 of the pstk-lint pipeline, second half: intra-procedural
// def-use analysis over the function's lowering (cfg.h).
//
// From the lowering's source-order statement list, builds:
//   * a variable table — parameters and local declarations with type,
//     initializer text, declaring loop depth, and every reaching write
//   * an event stream — every call and return in statement order, each
//     with its innermost enclosing if/switch (an index into the
//     lowering, so the whole guard chain is a walk, not a copy)
//   * derived value facts via fixpoint over initializers/writes:
//       - rank-derived: the value depends on the caller's own MPI rank /
//         SHMEM PE id (seeds: `rank`/`my_pe` words, `.rank()` calls)
//       - 64-bit-sized: the value carries a 64-bit size/offset type
//         (Bytes, size_t, int64_t, ...) or comes from `.size()`/`sizeof`
// The derived facts are recomputed, without re-lowering, whenever the
// interprocedural taint knowledge grows (callgraph.h).
//
// Rule passes (lint.cc) query these instead of re-deriving structure from
// text, which is what kills the substring scanner's false positives.
#pragma once

#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/parse.h"

namespace pstk::analysis {

/// True when `text` contains `word` bounded by non-identifier characters.
bool ContainsWord(const std::string& text, const std::string& word);

/// Cross-function facts fed back into per-function taint seeding by the
/// interprocedural layer (callgraph.cc): a call to a function listed in
/// `rank_fns` produces a rank-derived value, one in `wide_fns` a
/// 64-bit-sized value. Built by a program-level fixpoint; a plain
/// FunctionFlow without knowledge degrades to the PR-3 intra-procedural
/// behavior.
struct TaintKnowledge {
  std::vector<std::string> rank_fns;
  std::vector<std::string> wide_fns;
};

struct VarWrite {
  int line = 0;
  std::string rhs;     // compact right-hand-side text
  int loop_depth = 0;  // loop nesting at the write site
};

struct VarInfo {
  std::string name;
  std::string type;  // declared type text ("auto" included); "" for params
                     // only when unnamed
  std::string init;  // compact initializer text
  int decl_line = 0;
  int decl_loop_depth = 0;
  bool is_param = false;
  std::vector<VarWrite> writes;
};

/// One call or return site in statement order.
struct FlowEvent {
  const Stmt* stmt = nullptr;
  const CallExpr* call = nullptr;  // null for a return statement
  int guard = -1;  // innermost enclosing if/switch (CfgStmt::guard)
  int order = 0;   // linearized position in the function
};

class FunctionFlow {
 public:
  /// Derive the flow of `cfg`'s function from its lowering. `knowledge`,
  /// when given, must outlive the flow; it widens the taint seeds with
  /// rank-/wide-returning function names.
  explicit FunctionFlow(Cfg cfg, const TaintKnowledge* knowledge = nullptr);

  [[nodiscard]] const Function& fn() const { return cfg_.fn(); }
  [[nodiscard]] const Cfg& cfg() const { return cfg_; }

  /// Recompute the rank-derived / 64-bit-sized facts against the current
  /// contents of the taint knowledge (the constructor computes them once).
  void ComputeDerived();

  /// Variable table lookup (params + locals); nullptr when unknown.
  [[nodiscard]] const VarInfo* Lookup(const std::string& name) const;
  [[nodiscard]] const std::vector<VarInfo>& vars() const { return vars_; }

  /// Calls and returns in statement order with loop/branch context.
  [[nodiscard]] const std::vector<FlowEvent>& events() const {
    return events_;
  }

  /// Expression mentions the caller's rank / PE id, directly (`rank`,
  /// `my_pe` words) or through a rank-derived variable.
  [[nodiscard]] bool IsRankDerived(const std::string& expr) const;

  /// The condition of `guard` (an if/switch/loop header) splits the
  /// ranks: it is rank-derived and is not a `.ok()` status guard. Status
  /// guards are treated as rank-uniform even when the value is
  /// rank-tainted: the taint flows through collective reads whose
  /// *content* differs per rank while the error outcome is uniform, and
  /// flagging every error-handling path would drown the genuinely
  /// divergent branches.
  [[nodiscard]] bool IsDivergent(const Stmt& guard) const;

  /// Innermost if/switch enclosing `e` whose condition IsDivergent;
  /// nullptr when none does.
  [[nodiscard]] const Stmt* DivergentGuard(const FlowEvent& e) const;

  /// Expression carries a 64-bit size: references a 64-bit-typed variable,
  /// a `size()` call, or `sizeof`.
  [[nodiscard]] bool Is64BitSized(const std::string& expr) const;

  /// Expression depends on `seed` (a parameter or variable name): mentions
  /// it directly or through a chain of local derivations (`n2 = n * 2;
  /// Send(buf, static_cast<int>(n2), ...)` depends on `n`). Used by the
  /// summary layer to map call arguments back onto parameters.
  [[nodiscard]] bool DependsOn(const std::string& expr,
                               const std::string& seed) const;

  /// Some branch condition compares against the `int` ceiling (INT_MAX,
  /// INT32_MAX, numeric_limits<int32>::max(), 2147483647) — the idiomatic
  /// guard before narrowing a 64-bit count.
  [[nodiscard]] bool HasIntMaxGuard() const;

  /// Statement-order uses of `name` (word match in statement text),
  /// excluding its declaration site.
  struct UseSite {
    int line = 0;
    int loop_depth = 0;
  };
  [[nodiscard]] std::vector<UseSite> UsesOf(const std::string& name) const;

  /// Any call whose receiver is `name` and whose method is in `methods`.
  [[nodiscard]] bool HasMethodCall(
      const std::string& name,
      const std::vector<std::string>& methods) const;

 private:
  [[nodiscard]] bool MentionsRank(const std::string& text) const;
  [[nodiscard]] bool MentionsWide(const std::string& text) const;

  Cfg cfg_;
  const TaintKnowledge* know_ = nullptr;
  std::vector<VarInfo> vars_;
  std::vector<FlowEvent> events_;
  std::vector<std::string> rank_vars_;
  std::vector<std::string> wide_vars_;  // 64-bit-sized variables
};

}  // namespace pstk::analysis
