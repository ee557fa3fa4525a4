//===- analysis/Dataflow.cpp - Forward dataflow over the MiniJS CFG --------===//

#include "analysis/Dataflow.h"

#include <algorithm>
#include <cassert>

using namespace wr;
using namespace wr::analysis;

// --------------------------------------------------------------------------
// Definition collection
// --------------------------------------------------------------------------

namespace {

/// The defined name of an assignment/update target: an identifier or a
/// `window.x` member. Index targets and other member writes define DOM
/// state, not guard subjects or tracked variables.
std::string targetName(const js::Expr *Target) {
  if (const auto *I = js::dyn_cast<js::Ident>(Target))
    return I->Name;
  if (const auto *M = js::dyn_cast<js::Member>(Target))
    if (const auto *Base = js::dyn_cast<js::Ident>(M->Base.get()))
      if (Base->Name == "window")
        return M->Name;
  return std::string();
}

void walkExprDefs(const js::Expr *E, bool IncludeConditional,
                  std::vector<std::string> &Out) {
  if (!E)
    return;
  switch (E->kind()) {
  case js::AstKind::Assign: {
    const auto *A = js::cast<js::Assign>(E);
    if (std::string Name = targetName(A->Target.get()); !Name.empty())
      Out.push_back(std::move(Name));
    else
      walkExprDefs(A->Target.get(), IncludeConditional, Out);
    walkExprDefs(A->Value.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::Update: {
    const auto *U = js::cast<js::Update>(E);
    if (std::string Name = targetName(U->Operand.get()); !Name.empty())
      Out.push_back(std::move(Name));
    return;
  }
  case js::AstKind::Conditional: {
    const auto *C = js::cast<js::Conditional>(E);
    walkExprDefs(C->Cond.get(), IncludeConditional, Out);
    if (IncludeConditional) {
      walkExprDefs(C->Then.get(), IncludeConditional, Out);
      walkExprDefs(C->Else.get(), IncludeConditional, Out);
    }
    return;
  }
  case js::AstKind::Logical: {
    const auto *L = js::cast<js::Logical>(E);
    walkExprDefs(L->Lhs.get(), IncludeConditional, Out);
    if (IncludeConditional)
      walkExprDefs(L->Rhs.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::FunctionExpr:
    return; // Separate body, separate Cfg.
  case js::AstKind::Unary:
    walkExprDefs(js::cast<js::Unary>(E)->Operand.get(), IncludeConditional,
                 Out);
    return;
  case js::AstKind::Binary: {
    const auto *B = js::cast<js::Binary>(E);
    walkExprDefs(B->Lhs.get(), IncludeConditional, Out);
    walkExprDefs(B->Rhs.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::Member:
    walkExprDefs(js::cast<js::Member>(E)->Base.get(), IncludeConditional,
                 Out);
    return;
  case js::AstKind::Index: {
    const auto *I = js::cast<js::Index>(E);
    walkExprDefs(I->Base.get(), IncludeConditional, Out);
    walkExprDefs(I->Key.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::Call: {
    const auto *C = js::cast<js::Call>(E);
    walkExprDefs(C->Callee.get(), IncludeConditional, Out);
    for (const js::ExprPtr &Arg : C->Args)
      walkExprDefs(Arg.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::New: {
    const auto *N = js::cast<js::New>(E);
    for (const js::ExprPtr &Arg : N->Args)
      walkExprDefs(Arg.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::Sequence: {
    for (const js::ExprPtr &Sub : js::cast<js::Sequence>(E)->Exprs)
      walkExprDefs(Sub.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::ArrayLit: {
    for (const js::ExprPtr &Elt : js::cast<js::ArrayLit>(E)->Elems)
      walkExprDefs(Elt.get(), IncludeConditional, Out);
    return;
  }
  case js::AstKind::ObjectLit: {
    for (const auto &Prop : js::cast<js::ObjectLit>(E)->Props)
      walkExprDefs(Prop.Value.get(), IncludeConditional, Out);
    return;
  }
  default:
    return; // Literals, identifiers, this: no definitions.
  }
}

} // namespace

void wr::analysis::collectExprDefs(const js::Expr *E, bool IncludeConditional,
                                   std::vector<std::string> &Out) {
  walkExprDefs(E, IncludeConditional, Out);
}

void wr::analysis::collectStmtDefs(const js::Stmt *S, bool IncludeConditional,
                                   std::vector<std::string> &Out) {
  switch (S->kind()) {
  case js::AstKind::ExprStmt:
    walkExprDefs(js::cast<js::ExprStmt>(S)->E.get(), IncludeConditional,
                 Out);
    return;
  case js::AstKind::VarDecl: {
    for (const js::VarDecl::Declarator &D :
         js::cast<js::VarDecl>(S)->Decls) {
      // `var x;` leaves x undefined - the entry value, not a write.
      if (!D.Init)
        continue;
      Out.push_back(D.Name);
      walkExprDefs(D.Init.get(), IncludeConditional, Out);
    }
    return;
  }
  case js::AstKind::FunctionDecl:
    // Hoisted, so in truth defined even earlier than this anchor -
    // counting the definition here is the conservative direction.
    Out.push_back(js::cast<js::FunctionDecl>(S)->Fn.Name);
    return;
  case js::AstKind::ForIn:
    Out.push_back(js::cast<js::ForIn>(S)->Var);
    return;
  case js::AstKind::Return:
    walkExprDefs(js::cast<js::Return>(S)->Value.get(), IncludeConditional,
                 Out);
    return;
  case js::AstKind::Throw:
    walkExprDefs(js::cast<js::Throw>(S)->Value.get(), IncludeConditional,
                 Out);
    return;
  default:
    // Control statements own no expressions: their conditions are
    // block terminators, their children anchor in other blocks.
    return;
  }
}

// --------------------------------------------------------------------------
// The two analyses
// --------------------------------------------------------------------------

namespace {

struct GuardAnalysis {
  using Domain = GuardSet;

  const std::vector<BlockDefs> &Defs;

  Domain boundary() const { return GuardSet(); }

  void transferBlock(const CfgBlock &B, Domain &D) const {
    // A may-write to the guarded variable invalidates the fact.
    for (const std::string &V : Defs[B.Id].May)
      D.killSubject(V);
  }

  void transferEdge(const CfgEdge &E, Domain &D) const {
    if (!E.Cond)
      return;
    if (std::optional<Guard> G = classifyGuard(E.Cond, E.WhenTrue))
      D.add(*G);
  }

  static bool join(Domain &Into, const Domain &From) {
    size_t Before = Into.size();
    Into.intersectWith(From);
    return Into.size() != Before;
  }
};

struct EntryDefAnalysis {
  using Domain = std::set<std::string>;

  const std::vector<BlockDefs> &Defs;
  const std::set<std::string> &Universe;

  Domain boundary() const { return Universe; }

  void transferBlock(const CfgBlock &B, Domain &D) const {
    // Only definite (unconditional) definitions kill the entry value.
    for (const std::string &V : Defs[B.Id].Must)
      D.erase(V);
  }

  void transferEdge(const CfgEdge &, Domain &) const {}

  static bool join(Domain &Into, const Domain &From) {
    size_t Before = Into.size();
    Into.insert(From.begin(), From.end());
    return Into.size() != Before;
  }
};

} // namespace

// --------------------------------------------------------------------------
// FlowInfo
// --------------------------------------------------------------------------

FlowInfo::FlowInfo(Cfg Lowered) : G(std::move(Lowered)) {
  Defs.resize(G.Blocks.size());
  for (const CfgBlock &B : G.Blocks) {
    BlockDefs &D = Defs[B.Id];
    for (const js::Stmt *S : B.Stmts) {
      D.MayBegin.push_back(static_cast<uint32_t>(D.May.size()));
      D.MustBegin.push_back(static_cast<uint32_t>(D.Must.size()));
      collectStmtDefs(S, /*IncludeConditional=*/true, D.May);
      collectStmtDefs(S, /*IncludeConditional=*/false, D.Must);
    }
    collectExprDefs(B.Term, /*IncludeConditional=*/true, D.May);
    collectExprDefs(B.Term, /*IncludeConditional=*/false, D.Must);
    Tracked.insert(D.May.begin(), D.May.end());
  }
  GuardIn = solveForward(G, GuardAnalysis{Defs});
  EntryIn = solveForward(G, EntryDefAnalysis{Defs, Tracked});
}

FlowInfo::FlowInfo(const js::Program &P) : FlowInfo(Cfg::lower(P)) {}

FlowInfo::FlowInfo(const js::FunctionLiteral &Fn) : FlowInfo(Cfg::lower(Fn)) {}

template <typename State>
const CfgBlock *
FlowInfo::anchor(const js::Stmt *S,
                 const std::vector<std::optional<State>> &In,
                 size_t &Index) const {
  auto It = G.BlockOf.find(S);
  if (It == G.BlockOf.end() || !In[It->second])
    return nullptr;
  const CfgBlock &B = G.Blocks[It->second];
  Index = std::find(B.Stmts.begin(), B.Stmts.end(), S) - B.Stmts.begin();
  assert(Index < B.Stmts.size() && "BlockOf names a block without S");
  return &B;
}

GuardSet FlowInfo::guardsAt(const js::Stmt *S) const {
  size_t Index;
  const CfgBlock *B = anchor(S, GuardIn, Index);
  if (!B)
    return GuardSet();
  GuardSet State = *GuardIn[B->Id];
  const BlockDefs &D = Defs[B->Id];
  for (uint32_t I = 0; I < D.MayBegin[Index]; ++I)
    State.killSubject(D.May[I]);
  return State;
}

bool FlowInfo::definitelyWrittenBefore(const js::Stmt *S,
                                       const std::string &Var) const {
  if (!Tracked.count(Var))
    return false; // Never written here, so the entry value reaches.
  size_t Index;
  const CfgBlock *B = anchor(S, EntryIn, Index);
  if (!B)
    return false; // Unknown or unreachable: keep the read.
  if (!EntryIn[B->Id]->count(Var))
    return true; // Every path into the block already wrote Var.
  // Otherwise only a definite write earlier in the block kills it.
  const BlockDefs &D = Defs[B->Id];
  auto End = D.Must.begin() + D.MustBegin[Index];
  return std::find(D.Must.begin(), End, Var) != End;
}
