#include "analysis/cfg.h"

#include <sstream>

#include "analysis/dataflow.h"

namespace pstk::analysis {

namespace {

/// Sentinel edge target used while lowering, before the exit block id is
/// known (the exit block is appended last so goldens read top-to-bottom).
constexpr int kExitSentinel = -2;

/// Lowers one function; the results are the three public fields.
struct Builder {
  explicit Builder(const Function& fn) {
    const int entry = NewBlock(0);
    const int open = Lower(fn.body, entry, 0, -1);
    exit_block = NewBlock(0);
    if (open != -1) AddEdge(open, exit_block);
    for (CfgBlock& b : blocks) {
      for (CfgEdge& e : b.succs) {
        if (e.to == kExitSentinel) e.to = exit_block;
      }
    }
  }

  std::vector<CfgStmt> source_order;
  std::vector<CfgBlock> blocks;
  int exit_block = 0;

  int NewBlock(int loop_depth) {
    const int id = static_cast<int>(blocks.size());
    blocks.push_back(CfgBlock{});
    blocks.back().id = id;
    blocks.back().loop_depth = loop_depth;
    return id;
  }

  void AddEdge(int from, int to, std::optional<CfgCond> cond = std::nullopt,
               bool back = false) {
    blocks[from].succs.push_back(CfgEdge{to, cond, back});
  }

  /// Lower `stmts` starting in block `cur` (-1: unreachable, after an
  /// unconditional return — the statements are listed but get no block);
  /// returns the block left open at the end, or -1 when every path
  /// through `stmts` already terminated.
  int Lower(const std::vector<Stmt>& stmts, int cur, int loop_depth,
            int guard) {
    for (const Stmt& s : stmts) {
      const int at = static_cast<int>(source_order.size());
      source_order.push_back(CfgStmt{&s, loop_depth, guard});
      if (cur == -1) {
        switch (s.kind) {
          case StmtKind::kLoop:
            Lower(s.children, -1, loop_depth + 1, guard);
            break;
          case StmtKind::kBranch:
            Lower(s.children, -1, loop_depth, at);
            Lower(s.else_children, -1, loop_depth, at);
            break;
          case StmtKind::kBlock:
            Lower(s.children, -1, loop_depth, guard);
            break;
          default:
            break;
        }
        continue;
      }
      switch (s.kind) {
        case StmtKind::kBranch: {
          blocks[cur].stmts.push_back(&s);
          const int then_entry = NewBlock(loop_depth);
          AddEdge(cur, then_entry, CfgCond{&s, /*negated=*/false});
          const int then_end = Lower(s.children, then_entry, loop_depth, at);
          if (s.else_children.empty()) {
            // No else (this also covers switch, lowered by the parser as a
            // branch with an empty else: some arm ran, or none did).
            const int join = NewBlock(loop_depth);
            AddEdge(cur, join, CfgCond{&s, /*negated=*/true});
            if (then_end != -1) AddEdge(then_end, join);
            cur = join;
          } else {
            const int else_entry = NewBlock(loop_depth);
            AddEdge(cur, else_entry, CfgCond{&s, /*negated=*/true});
            const int else_end = Lower(s.else_children, else_entry,
                                       loop_depth, at);
            if (then_end == -1 && else_end == -1) {
              cur = -1;
            } else {
              const int join = NewBlock(loop_depth);
              if (then_end != -1) AddEdge(then_end, join);
              if (else_end != -1) AddEdge(else_end, join);
              cur = join;
            }
          }
          break;
        }
        case StmtKind::kLoop: {
          const int head = NewBlock(loop_depth);
          AddEdge(cur, head);
          blocks[head].stmts.push_back(&s);
          const int body = NewBlock(loop_depth + 1);
          const int after = NewBlock(loop_depth);
          AddEdge(head, body, CfgCond{&s, /*negated=*/false});
          AddEdge(head, after, CfgCond{&s, /*negated=*/true});
          const int body_end = Lower(s.children, body, loop_depth + 1, guard);
          if (body_end != -1) {
            AddEdge(body_end, head, std::nullopt, /*back=*/true);
          }
          cur = after;
          break;
        }
        case StmtKind::kReturn: {
          blocks[cur].stmts.push_back(&s);
          AddEdge(cur, kExitSentinel);
          cur = -1;
          break;
        }
        case StmtKind::kBlock: {
          cur = Lower(s.children, cur, loop_depth, guard);
          break;
        }
        case StmtKind::kPlain:
        case StmtKind::kPragma: {
          blocks[cur].stmts.push_back(&s);
          break;
        }
      }
    }
    return cur;
  }
};

}  // namespace

Cfg Cfg::Build(const Function& fn) {
  Builder b(fn);
  Cfg cfg;
  cfg.fn_ = &fn;
  cfg.stmts_ = std::move(b.source_order);
  cfg.blocks_ = std::move(b.blocks);
  cfg.exit_ = b.exit_block;
  return cfg;
}

std::vector<Cfg::Path> Cfg::EnumeratePaths(std::size_t max_paths,
                                           bool* overflow) const {
  if (overflow != nullptr) *overflow = false;
  std::vector<Path> paths;
  if (blocks_.empty()) return paths;

  std::vector<int> visits(blocks_.size(), 0);
  Path cur;
  bool truncated = false;

  // Depth-first walk; each block may appear at most twice on a path, which
  // abstracts every loop to its skip path and its body-once path.
  auto walk = [&](auto&& self, int id) -> void {
    if (truncated) return;
    ++visits[id];
    const std::size_t step_mark = cur.steps.size();
    const CfgBlock& b = blocks_[id];
    for (const Stmt* s : b.stmts) {
      cur.steps.push_back(Step{s, b.loop_depth});
    }
    if (id == exit_) {
      if (paths.size() >= max_paths) {
        truncated = true;
      } else {
        paths.push_back(cur);
      }
    } else {
      for (const CfgEdge& e : b.succs) {
        if (visits[e.to] >= 2) continue;
        self(self, e.to);
        if (truncated) break;
      }
      // A block with no viable successor is a dead end (e.g. a loop body
      // whose only exit is an exhausted back edge); the partial path is
      // simply abandoned.
    }
    cur.steps.resize(step_mark);
    --visits[id];
  };
  walk(walk, entry_);

  if (truncated && overflow != nullptr) *overflow = true;
  return paths;
}

std::string Cfg::Dump(const FunctionFlow& flow) const {
  std::ostringstream os;
  os << "entry=b" << entry_ << " exit=b" << exit_ << "\n";
  for (const CfgBlock& b : blocks_) {
    os << "b" << b.id << " d" << b.loop_depth << " lines=";
    for (std::size_t i = 0; i < b.stmts.size(); ++i) {
      if (i > 0) os << ",";
      os << b.stmts[i]->line;
    }
    os << "\n";
    for (const CfgEdge& e : b.succs) {
      os << "  -> b" << e.to;
      if (e.cond.has_value()) {
        const Stmt& cond = *e.cond->stmt;
        os << (e.cond->negated ? " ifnot \"" : " if \"") << cond.text
           << "\" (line " << cond.line
           << (flow.IsDivergent(cond) ? ", divergent)" : ")");
      }
      if (e.back_edge) os << " back";
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace pstk::analysis
