//===- ir/IRParser.cpp ----------------------------------------------------===//

#include "ir/IRParser.h"

#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

using namespace privateer;
using namespace privateer::ir;

namespace {

/// A fixup for a value reference that may be defined later in the
/// function (phi operands, mutually recursive uses).
struct ValueFixup {
  Instruction *Inst;
  unsigned OperandIndex;
  std::string Name;
  unsigned Line;
};

class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Error(Error) {
    std::istringstream In(Text);
    std::string L;
    while (std::getline(In, L))
      Lines.push_back(L);
  }

  std::unique_ptr<Module> run() {
    auto M = std::make_unique<Module>();
    Mod = M.get();
    // Pass 0: declare all functions so calls can be forward.
    for (unsigned I = 0; I < Lines.size(); ++I) {
      std::string L = stripped(Lines[I]);
      if (L.rfind("define ", 0) == 0)
        if (!predeclareFunction(L, I + 1))
          return nullptr;
    }
    // Pass 1: full parse.
    for (Pos = 0; Pos < Lines.size();) {
      std::string L = stripped(Lines[Pos]);
      if (L.empty()) {
        ++Pos;
        continue;
      }
      if (L.rfind("global ", 0) == 0) {
        if (!parseGlobal(L))
          return nullptr;
        ++Pos;
        continue;
      }
      if (L.rfind("define ", 0) == 0) {
        if (!parseFunction())
          return nullptr;
        continue;
      }
      return fail("expected 'global' or 'define'");
    }
    return M;
  }

private:
  std::unique_ptr<Module> fail(const std::string &Msg) {
    Error = "line " + std::to_string(Pos + 1) + ": " + Msg;
    return nullptr;
  }
  bool failB(const std::string &Msg) {
    Error = "line " + std::to_string(Pos + 1) + ": " + Msg;
    return false;
  }

  static std::string stripped(const std::string &L) {
    size_t Begin = L.find_first_not_of(" \t");
    if (Begin == std::string::npos)
      return "";
    size_t Semi = L.find(';');
    // Don't treat ';' inside a string literal as a comment.
    size_t Quote = L.find('"');
    if (Semi != std::string::npos && (Quote == std::string::npos ||
                                      Semi < Quote)) {
      size_t End = L.find_last_not_of(" \t", Semi == 0 ? 0 : Semi - 1);
      if (Semi == Begin)
        return "";
      return L.substr(Begin, End - Begin + 1);
    }
    size_t End = L.find_last_not_of(" \t");
    return L.substr(Begin, End - Begin + 1);
  }

  static std::optional<HeapKind> heapFromToken(const std::string &T) {
    for (unsigned I = 0; I < kNumHeapKinds; ++I) {
      HeapKind K = static_cast<HeapKind>(I);
      if (T == heapKindName(K))
        return K;
    }
    return std::nullopt;
  }

  static std::optional<Type> typeFromToken(const std::string &T) {
    if (T == "void")
      return Type::Void;
    if (T == "i64")
      return Type::I64;
    if (T == "f64")
      return Type::F64;
    if (T == "ptr")
      return Type::Ptr;
    return std::nullopt;
  }

  bool parseGlobal(const std::string &L) {
    std::istringstream S(L);
    std::string Kw, Name, Heap;
    uint64_t Size = 0;
    S >> Kw >> Name >> Size;
    if (Name.empty() || Name[0] != '@' || Size == 0)
      return failB("malformed global (want: global @name <bytes>)");
    GlobalVariable *G = Mod->createGlobal(Name.substr(1), Size);
    if (S >> Heap) {
      auto K = heapFromToken(Heap);
      if (!K)
        return failB("unknown heap '" + Heap + "'");
      G->assignHeap(*K);
    }
    return true;
  }

  bool predeclareFunction(const std::string &L, unsigned LineNo) {
    // define <type> @name(...)
    std::istringstream S(L);
    std::string Kw, TyTok;
    S >> Kw >> TyTok;
    auto Ty = typeFromToken(TyTok);
    if (!Ty) {
      Error = "line " + std::to_string(LineNo) + ": bad return type";
      return false;
    }
    size_t At = L.find('@');
    size_t Paren = L.find('(', At);
    if (At == std::string::npos || Paren == std::string::npos) {
      Error = "line " + std::to_string(LineNo) + ": malformed define";
      return false;
    }
    std::string Name = L.substr(At + 1, Paren - At - 1);
    Mod->createFunction(Name, *Ty);
    return true;
  }

  bool parseFunction() {
    std::string L = stripped(Lines[Pos]);
    size_t At = L.find('@');
    size_t Open = L.find('(', At);
    size_t Close = L.find(')', Open);
    if (Close == std::string::npos || L.find('{', Close) == std::string::npos)
      return failB("malformed function header");
    Func = Mod->functionByName(L.substr(At + 1, Open - At - 1));

    // Arguments: "<type> %name" comma-separated.
    std::string ArgText = L.substr(Open + 1, Close - Open - 1);
    std::istringstream AS(ArgText);
    std::string Piece;
    while (std::getline(AS, Piece, ',')) {
      std::istringstream PS(Piece);
      std::string TyTok, NameTok;
      PS >> TyTok >> NameTok;
      if (TyTok.empty())
        continue;
      auto Ty = typeFromToken(TyTok);
      if (!Ty || NameTok.empty() || NameTok[0] != '%')
        return failB("malformed argument '" + Piece + "'");
      Argument *A = Func->addArgument(*Ty, NameTok.substr(1));
      Values[A->name()] = A;
    }
    ++Pos;

    // Pre-scan labels so branches can be forward.
    for (unsigned Scan = Pos; Scan < Lines.size(); ++Scan) {
      std::string SL = stripped(Lines[Scan]);
      if (SL == "}")
        break;
      if (!SL.empty() && SL.back() == ':' &&
          SL.find(' ') == std::string::npos)
        Func->createBlock(SL.substr(0, SL.size() - 1));
    }

    CurBlock = nullptr;
    Fixups.clear();
    for (; Pos < Lines.size(); ++Pos) {
      std::string IL = stripped(Lines[Pos]);
      if (IL.empty())
        continue;
      if (IL == "}") {
        ++Pos;
        if (!resolveFixups())
          return false;
        // Keep argument/instruction names from leaking across functions.
        Values.clear();
        return true;
      }
      if (IL.back() == ':' && IL.find(' ') == std::string::npos) {
        CurBlock = Func->blockByName(IL.substr(0, IL.size() - 1));
        continue;
      }
      if (!CurBlock)
        return failB("instruction before first block label");
      if (!parseInstruction(IL))
        return false;
    }
    return failB("missing '}'");
  }

  bool resolveFixups() {
    for (const ValueFixup &F : Fixups) {
      auto It = Values.find(F.Name);
      if (It == Values.end()) {
        Error = "line " + std::to_string(F.Line) + ": unknown value %" +
                F.Name;
        return false;
      }
      F.Inst->setOperand(F.OperandIndex, It->second);
    }
    Fixups.clear();
    return true;
  }

  /// Parses one value token; for not-yet-defined %names, registers a
  /// fixup against \p I's operand slot about to be added.
  Value *valueToken(const std::string &T, Instruction *I) {
    if (T.empty())
      return nullptr;
    if (T[0] == '%') {
      std::string N = T.substr(1);
      auto It = Values.find(N);
      if (It != Values.end())
        return It->second;
      Fixups.push_back(ValueFixup{I, I->numOperands(), N, Pos + 1});
      return Mod->constInt(0); // Placeholder patched by resolveFixups.
    }
    if (T[0] == '@') {
      if (GlobalVariable *G = Mod->globalByName(T.substr(1)))
        return G;
      return nullptr;
    }
    if (T.find('.') != std::string::npos ||
        T.find('e') != std::string::npos ||
        T.find("inf") != std::string::npos)
      return Mod->constFloat(std::stod(T));
    try {
      return Mod->constInt(std::stoll(T));
    } catch (...) {
      return nullptr;
    }
  }

  /// Splits "a, b, c" at top-level commas (no nesting in this IR except
  /// phi brackets, handled by the phi parser directly).
  static std::vector<std::string> splitArgs(const std::string &S) {
    std::vector<std::string> Out;
    std::string Cur;
    int Depth = 0;
    bool InStr = false;
    for (char C : S) {
      if (C == '"' )
        InStr = !InStr;
      if (!InStr) {
        if (C == '[' || C == '(')
          ++Depth;
        if (C == ']' || C == ')')
          --Depth;
        if (C == ',' && Depth == 0) {
          Out.push_back(trim(Cur));
          Cur.clear();
          continue;
        }
      }
      Cur += C;
    }
    if (!trim(Cur).empty())
      Out.push_back(trim(Cur));
    return Out;
  }

  static std::string trim(const std::string &S) {
    size_t B = S.find_first_not_of(" \t");
    if (B == std::string::npos)
      return "";
    size_t E = S.find_last_not_of(" \t");
    return S.substr(B, E - B + 1);
  }

  bool addValueOperand(Instruction *I, const std::string &Tok) {
    Value *V = valueToken(Tok, I);
    if (!V)
      return failB("bad value '" + Tok + "'");
    I->addOperand(V);
    return true;
  }

  bool parseInstruction(const std::string &L) {
    std::string Rest = L;
    std::string ResultName;
    size_t Eq = L.find(" = ");
    size_t Quote = L.find('"');
    if (Eq != std::string::npos &&
        (Quote == std::string::npos || Eq < Quote) && L[0] == '%') {
      ResultName = trim(L.substr(1, Eq - 1));
      Rest = trim(L.substr(Eq + 3));
    }
    std::istringstream S(Rest);
    std::string Mn;
    S >> Mn;
    std::string Tail = trim(Rest.substr(Mn.size()));

    auto Create = [&](Opcode Op, Type Ty) {
      auto I = std::make_unique<Instruction>(Op, Ty, ResultName);
      Instruction *P = CurBlock->append(std::move(I));
      if (!ResultName.empty())
        Values[ResultName] = P;
      return P;
    };

    static const std::map<std::string, Opcode> BinOps = {
        {"add", Opcode::Add},   {"sub", Opcode::Sub},
        {"mul", Opcode::Mul},   {"sdiv", Opcode::SDiv},
        {"srem", Opcode::SRem}, {"and", Opcode::And},
        {"or", Opcode::Or},     {"xor", Opcode::Xor},
        {"shl", Opcode::Shl},   {"shr", Opcode::Shr},
        {"fadd", Opcode::FAdd}, {"fsub", Opcode::FSub},
        {"fmul", Opcode::FMul}, {"fdiv", Opcode::FDiv}};

    if (auto It = BinOps.find(Mn); It != BinOps.end()) {
      auto Args = splitArgs(Tail);
      if (Args.size() != 2)
        return failB(Mn + " wants 2 operands");
      Type Ty = (Mn[0] == 'f') ? Type::F64 : Type::I64;
      Instruction *I = Create(It->second, Ty);
      return addValueOperand(I, Args[0]) && addValueOperand(I, Args[1]);
    }

    if (Mn == "alloca") {
      Instruction *I = Create(Opcode::Alloca, Type::Ptr);
      I->setAccessBytes(std::stoull(Tail));
      return true;
    }
    if (Mn == "malloc") {
      auto Args = splitArgs(Tail);
      if (Args.empty() || Args.size() > 2)
        return failB("malloc wants 1 operand (+ optional heap)");
      Instruction *I = Create(Opcode::Malloc, Type::Ptr);
      if (!addValueOperand(I, Args[0]))
        return false;
      if (Args.size() == 2) {
        auto K = heapFromToken(Args[1]);
        if (!K)
          return failB("unknown heap '" + Args[1] + "'");
        I->setAllocHeap(*K);
      }
      return true;
    }
    if (Mn == "free") {
      Instruction *I = Create(Opcode::Free, Type::Void);
      return addValueOperand(I, Tail);
    }
    if (Mn == "load") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 3)
        return failB("load wants: load <type>, <ptr>, <bytes>");
      auto Ty = typeFromToken(Args[0]);
      if (!Ty)
        return failB("bad load type");
      Instruction *I = Create(Opcode::Load, *Ty);
      if (!addValueOperand(I, Args[1]))
        return false;
      I->setAccessBytes(std::stoull(Args[2]));
      return true;
    }
    if (Mn == "store") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 3)
        return failB("store wants: store <val>, <ptr>, <bytes>");
      Instruction *I = Create(Opcode::Store, Type::Void);
      if (!addValueOperand(I, Args[0]) || !addValueOperand(I, Args[1]))
        return false;
      I->setAccessBytes(std::stoull(Args[2]));
      return true;
    }
    if (Mn == "gep") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 2)
        return failB("gep wants 2 operands");
      Instruction *I = Create(Opcode::Gep, Type::Ptr);
      return addValueOperand(I, Args[0]) && addValueOperand(I, Args[1]);
    }
    if (Mn == "sitofp" || Mn == "fptosi") {
      Instruction *I = Create(Mn == "sitofp" ? Opcode::SiToFp
                                             : Opcode::FpToSi,
                              Mn == "sitofp" ? Type::F64 : Type::I64);
      return addValueOperand(I, Tail);
    }
    if (Mn == "icmp" || Mn == "fcmp") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 3)
        return failB(Mn + " wants: <pred>, <a>, <b>");
      Instruction *I =
          Create(Mn == "icmp" ? Opcode::ICmp : Opcode::FCmp, Type::I64);
      static const std::map<std::string, CmpPred> Preds = {
          {"eq", CmpPred::Eq}, {"ne", CmpPred::Ne}, {"lt", CmpPred::Lt},
          {"le", CmpPred::Le}, {"gt", CmpPred::Gt}, {"ge", CmpPred::Ge}};
      auto P = Preds.find(Args[0]);
      if (P == Preds.end())
        return failB("bad predicate '" + Args[0] + "'");
      I->setCmpPred(P->second);
      return addValueOperand(I, Args[1]) && addValueOperand(I, Args[2]);
    }
    if (Mn == "br") {
      BasicBlock *T = Func->blockByName(Tail);
      if (!T)
        return failB("unknown block '" + Tail + "'");
      Create(Opcode::Br, Type::Void)->addBlockRef(T);
      return true;
    }
    if (Mn == "condbr") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 3)
        return failB("condbr wants: <cond>, <then>, <else>");
      Instruction *I = Create(Opcode::CondBr, Type::Void);
      if (!addValueOperand(I, Args[0]))
        return false;
      BasicBlock *T = Func->blockByName(Args[1]);
      BasicBlock *F = Func->blockByName(Args[2]);
      if (!T || !F)
        return failB("unknown branch target");
      I->addBlockRef(T);
      I->addBlockRef(F);
      return true;
    }
    if (Mn == "ret") {
      Instruction *I = Create(Opcode::Ret, Type::Void);
      if (!Tail.empty())
        return addValueOperand(I, Tail);
      return true;
    }
    if (Mn == "call" || Tail.rfind("call", 0) == 0) {
      std::string CallText = Mn == "call" ? Tail : Tail;
      size_t At = CallText.find('@');
      size_t Open = CallText.find('(', At);
      size_t Close = CallText.rfind(')');
      if (At == std::string::npos || Open == std::string::npos ||
          Close == std::string::npos)
        return failB("malformed call");
      Function *Callee =
          Mod->functionByName(CallText.substr(At + 1, Open - At - 1));
      if (!Callee)
        return failB("unknown callee");
      Instruction *I = Create(Opcode::Call, Callee->returnType());
      I->setCallee(Callee);
      for (const std::string &A :
           splitArgs(CallText.substr(Open + 1, Close - Open - 1)))
        if (!addValueOperand(I, A))
          return false;
      return true;
    }
    if (Mn == "phi") {
      // phi [block: value], ...
      Type Ty = Type::I64; // Refined below from incoming constants? Keep
                           // i64 unless a float or pointer flows in.
      Instruction *I = Create(Opcode::Phi, Ty);
      for (const std::string &Piece : splitArgs(Tail)) {
        if (Piece.size() < 4 || Piece.front() != '[' || Piece.back() != ']')
          return failB("malformed phi arm '" + Piece + "'");
        std::string Inner = Piece.substr(1, Piece.size() - 2);
        size_t Colon = Inner.find(':');
        if (Colon == std::string::npos)
          return failB("malformed phi arm '" + Piece + "'");
        BasicBlock *B = Func->blockByName(trim(Inner.substr(0, Colon)));
        if (!B)
          return failB("unknown phi block");
        if (!addValueOperand(I, trim(Inner.substr(Colon + 1))))
          return false;
        I->addBlockRef(B);
      }
      return true;
    }
    if (Mn == "select") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 3)
        return failB("select wants 3 operands");
      Instruction *I = Create(Opcode::Select, Type::I64);
      return addValueOperand(I, Args[0]) && addValueOperand(I, Args[1]) &&
             addValueOperand(I, Args[2]);
    }
    if (Mn == "print") {
      size_t Q1 = Tail.find('"');
      size_t Q2 = Tail.rfind('"');
      if (Q1 == std::string::npos || Q2 <= Q1)
        return failB("print wants a quoted format");
      Instruction *I = Create(Opcode::Print, Type::Void);
      I->setPrintFormat(unescape(Tail.substr(Q1 + 1, Q2 - Q1 - 1)));
      std::string After = trim(Tail.substr(Q2 + 1));
      if (!After.empty() && After[0] == ',')
        After = trim(After.substr(1));
      if (!After.empty())
        for (const std::string &A : splitArgs(After))
          if (!addValueOperand(I, A))
            return false;
      return true;
    }
    if (Mn == "checkheap") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 2)
        return failB("checkheap wants: <ptr>, <heap>");
      auto K = heapFromToken(Args[1]);
      if (!K)
        return failB("unknown heap '" + Args[1] + "'");
      Instruction *I = Create(Opcode::CheckHeap, Type::Void);
      I->setExpectedHeap(*K);
      return addValueOperand(I, Args[0]);
    }
    if (Mn == "privread" || Mn == "privwrite") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 2)
        return failB(Mn + " wants: <ptr>, <bytes>");
      Instruction *I = Create(Mn == "privread" ? Opcode::PrivateRead
                                               : Opcode::PrivateWrite,
                              Type::Void);
      if (!addValueOperand(I, Args[0]))
        return false;
      I->setAccessBytes(std::stoull(Args[1]));
      return true;
    }
    if (Mn == "postdep") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 3)
        return failB("postdep wants: <iter>, <value>, <chan>");
      Instruction *I = Create(Opcode::PostDep, Type::Void);
      if (!addValueOperand(I, Args[0]) || !addValueOperand(I, Args[1]))
        return false;
      I->setDepChannel(static_cast<uint32_t>(std::stoull(Args[2])));
      return true;
    }
    if (Mn == "waitdep") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 2)
        return failB("waitdep wants: <iter>, <chan>");
      Instruction *I = Create(Opcode::WaitDep, Type::I64);
      if (!addValueOperand(I, Args[0]))
        return false;
      I->setDepChannel(static_cast<uint32_t>(std::stoull(Args[1])));
      return true;
    }
    if (Mn == "comupdate") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 4)
        return failB("comupdate wants: <op>, <value>, <ptr>, <bytes>");
      static const std::map<std::string, ComOp> ComOps = {
          {"add", ComOp::Add}, {"mul", ComOp::Mul}, {"and", ComOp::And},
          {"or", ComOp::Or},   {"xor", ComOp::Xor}, {"min", ComOp::Min},
          {"max", ComOp::Max}};
      auto O = ComOps.find(Args[0]);
      if (O == ComOps.end())
        return failB("unknown commutative op '" + Args[0] + "'");
      Instruction *I = Create(Opcode::ComUpdate, Type::Void);
      I->setComOp(O->second);
      if (!addValueOperand(I, Args[1]) || !addValueOperand(I, Args[2]))
        return false;
      I->setAccessBytes(std::stoull(Args[3]));
      return true;
    }
    if (Mn == "speculate_eq") {
      auto Args = splitArgs(Tail);
      if (Args.size() != 2)
        return failB("speculate_eq wants 2 operands");
      Instruction *I = Create(Opcode::SpeculateEq, Type::Void);
      return addValueOperand(I, Args[0]) && addValueOperand(I, Args[1]);
    }
    return failB("unknown mnemonic '" + Mn + "'");
  }

  static std::string unescape(const std::string &S) {
    std::string Out;
    for (size_t I = 0; I < S.size(); ++I) {
      if (S[I] == '\\' && I + 1 < S.size()) {
        ++I;
        if (S[I] == 'n')
          Out += '\n';
        else if (S[I] == 't')
          Out += '\t';
        else
          Out += S[I];
      } else {
        Out += S[I];
      }
    }
    return Out;
  }

  std::string &Error;
  std::vector<std::string> Lines;
  unsigned Pos = 0;
  Module *Mod = nullptr;
  Function *Func = nullptr;
  BasicBlock *CurBlock = nullptr;
  std::map<std::string, Value *> Values;
  std::vector<ValueFixup> Fixups;
};

} // namespace

std::unique_ptr<Module> ir::parseModule(const std::string &Text,
                                        std::string &Error) {
  Parser P(Text, Error);
  return P.run();
}
