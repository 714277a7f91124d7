#include "analysis/dataflow.h"

#include <algorithm>
#include <cctype>

namespace pstk::analysis {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Words that directly denote the caller's own rank / PE id.
const char* const kRankWords[] = {"rank", "my_pe", "my_rank", "pe_id"};

/// Type words that carry 64-bit sizes/offsets in this codebase.
const char* const kWideTypeWords[] = {
    "Bytes",    "size_t",   "int64_t",  "uint64_t",   "ssize_t",
    "ptrdiff_t", "streamsize", "streamoff", "long",    "off_t",
};

bool TypeIsWide(const std::string& type) {
  for (const char* w : kWideTypeWords) {
    if (ContainsWord(type, w)) return true;
  }
  return false;
}

bool MentionsRankDirectly(const std::string& text) {
  for (const char* w : kRankWords) {
    if (ContainsWord(text, w)) return true;
  }
  return false;
}

bool MentionsWideDirectly(const std::string& text) {
  // `x.size()` / `file->size()` / `sizeof(...)` produce 64-bit sizes.
  if (ContainsWord(text, "sizeof")) return true;
  std::size_t pos = 0;
  while ((pos = text.find("size", pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const std::size_t end = pos + 4;
    if (left_ok && text.compare(end, 2, "()") == 0) return true;
    pos = end;
  }
  return false;
}

bool AnyVarWord(const std::string& text,
                const std::vector<std::string>& names) {
  return std::any_of(names.begin(), names.end(), [&](const std::string& n) {
    return ContainsWord(text, n);
  });
}

/// `text` invokes one of `fns` as a call (name word followed by '(').
bool CallsAnyFn(const std::string& text, const std::vector<std::string>& fns) {
  for (const std::string& f : fns) {
    std::size_t pos = 0;
    while ((pos = text.find(f, pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
      const std::size_t end = pos + f.size();
      if (left_ok && end < text.size() && text[end] == '(') return true;
      pos = end;
    }
  }
  return false;
}

const char* const kGuardSentinels[] = {"INT_MAX", "INT32_MAX", "2147483647"};

bool IsIntMaxGuard(const std::string& cond) {
  for (const char* s : kGuardSentinels) {
    if (cond.find(s) != std::string::npos) return true;
  }
  return cond.find("numeric_limits") != std::string::npos &&
         cond.find("max") != std::string::npos;
}

}  // namespace

bool ContainsWord(const std::string& text, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end == text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

FunctionFlow::FunctionFlow(Cfg cfg, const TaintKnowledge* knowledge)
    : cfg_(std::move(cfg)), know_(knowledge) {
  const auto declare = [this](const std::string& name,
                              const std::string& type, const std::string& init,
                              int line, int loop_depth) {
    const bool known =
        std::any_of(vars_.begin(), vars_.end(),
                    [&](const VarInfo& v) { return v.name == name; });
    if (known) return;
    VarInfo v;
    v.name = name;
    v.type = type;
    v.init = init;
    v.decl_line = line;
    v.decl_loop_depth = loop_depth;
    vars_.push_back(std::move(v));
  };
  for (const Param& p : fn().params) {
    if (p.name.empty()) continue;
    VarInfo v;
    v.name = p.name;
    v.type = p.type;
    v.decl_line = fn().line;
    v.is_param = true;
    vars_.push_back(std::move(v));
  }
  for (const CfgStmt& at : cfg_.stmts()) {
    const Stmt& s = *at.stmt;
    if (!s.decl_name.empty()) {
      declare(s.decl_name, s.decl_type, s.init_text, s.line, at.loop_depth);
    }
    for (const Assign& a : s.assigns) {
      for (VarInfo& v : vars_) {
        if (v.name != a.name) continue;
        // Only the part after the operator reaches the variable; for our
        // text-level queries the whole statement text is the usable rhs.
        v.writes.push_back(VarWrite{a.line, s.text, at.loop_depth});
        break;
      }
    }
    for (const CallExpr& c : s.calls) {
      events_.push_back(
          FlowEvent{&s, &c, at.guard, static_cast<int>(events_.size())});
    }
    if (s.kind == StmtKind::kReturn) {
      events_.push_back(
          FlowEvent{&s, nullptr, at.guard, static_cast<int>(events_.size())});
    }
    if (s.kind == StmtKind::kLoop && !s.induction_var.empty()) {
      declare(s.induction_var, s.induction_type, "", s.line,
              at.loop_depth + 1);
    }
  }
  ComputeDerived();
}

void FunctionFlow::ComputeDerived() {
  rank_vars_.clear();
  wide_vars_.clear();
  // Fixpoint over short derivation chains (right = rank+1; partner =
  // right^1; ...). Bounded by the variable count.
  bool changed = true;
  std::size_t guard = vars_.size() + 2;
  while (changed && guard-- > 0) {
    changed = false;
    for (const VarInfo& v : vars_) {
      const bool already_rank = AnyVarWord(v.name, rank_vars_);
      if (!already_rank) {
        bool rank = MentionsRank(v.name);
        if (!rank && MentionsRank(v.init)) rank = true;
        if (!rank && AnyVarWord(v.init, rank_vars_)) rank = true;
        for (const VarWrite& w : v.writes) {
          if (rank) break;
          if (MentionsRank(w.rhs) || AnyVarWord(w.rhs, rank_vars_)) {
            rank = true;
          }
        }
        if (rank) {
          rank_vars_.push_back(v.name);
          changed = true;
        }
      }
      const bool already_wide = AnyVarWord(v.name, wide_vars_);
      if (!already_wide) {
        bool wide = TypeIsWide(v.type);
        if (!wide && MentionsWide(v.init)) wide = true;
        if (!wide && AnyVarWord(v.init, wide_vars_)) wide = true;
        for (const VarWrite& w : v.writes) {
          if (wide) break;
          if (MentionsWide(w.rhs) || AnyVarWord(w.rhs, wide_vars_)) {
            wide = true;
          }
        }
        if (wide) {
          wide_vars_.push_back(v.name);
          changed = true;
        }
      }
    }
  }
}

const VarInfo* FunctionFlow::Lookup(const std::string& name) const {
  for (const VarInfo& v : vars_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

bool FunctionFlow::MentionsRank(const std::string& text) const {
  if (MentionsRankDirectly(text)) return true;
  return know_ != nullptr && CallsAnyFn(text, know_->rank_fns);
}

bool FunctionFlow::MentionsWide(const std::string& text) const {
  if (MentionsWideDirectly(text)) return true;
  return know_ != nullptr && CallsAnyFn(text, know_->wide_fns);
}

bool FunctionFlow::IsRankDerived(const std::string& expr) const {
  return MentionsRank(expr) || AnyVarWord(expr, rank_vars_);
}

bool FunctionFlow::IsDivergent(const Stmt& guard) const {
  return guard.text.find(".ok()") == std::string::npos &&
         IsRankDerived(guard.text);
}

const Stmt* FunctionFlow::DivergentGuard(const FlowEvent& e) const {
  for (int g = e.guard; g != -1;) {
    const CfgStmt& at = cfg_.stmts()[static_cast<std::size_t>(g)];
    if (IsDivergent(*at.stmt)) return at.stmt;
    g = at.guard;
  }
  return nullptr;
}

bool FunctionFlow::Is64BitSized(const std::string& expr) const {
  return MentionsWide(expr) || AnyVarWord(expr, wide_vars_);
}

bool FunctionFlow::DependsOn(const std::string& expr,
                             const std::string& seed) const {
  std::vector<std::string> derived{seed};
  bool changed = true;
  std::size_t guard = vars_.size() + 2;
  while (changed && guard-- > 0) {
    changed = false;
    for (const VarInfo& v : vars_) {
      if (AnyVarWord(v.name, derived)) continue;
      bool dep = AnyVarWord(v.init, derived);
      for (const VarWrite& w : v.writes) {
        if (dep) break;
        dep = AnyVarWord(w.rhs, derived);
      }
      if (dep) {
        derived.push_back(v.name);
        changed = true;
      }
    }
  }
  return AnyVarWord(expr, derived);
}

bool FunctionFlow::HasIntMaxGuard() const {
  return std::any_of(cfg_.stmts().begin(), cfg_.stmts().end(),
                     [](const CfgStmt& at) {
                       return at.stmt->kind == StmtKind::kBranch &&
                              IsIntMaxGuard(at.stmt->text);
                     });
}

std::vector<FunctionFlow::UseSite> FunctionFlow::UsesOf(
    const std::string& name) const {
  std::vector<UseSite> out;
  for (const CfgStmt& at : cfg_.stmts()) {
    const Stmt& s = *at.stmt;
    if (s.decl_name == name && !ContainsWord(s.init_text, name)) {
      continue;  // the declaration itself is not a use
    }
    if (ContainsWord(s.text, name)) {
      out.push_back(UseSite{s.line, at.loop_depth});
    }
  }
  return out;
}

bool FunctionFlow::HasMethodCall(
    const std::string& name, const std::vector<std::string>& methods) const {
  return std::any_of(events_.begin(), events_.end(), [&](const FlowEvent& e) {
    return e.call != nullptr && e.call->receiver == name &&
           std::find(methods.begin(), methods.end(), e.call->method) !=
               methods.end();
  });
}

}  // namespace pstk::analysis
