//===- bytecode/Bytecode.h - Direct-threaded bytecode format ----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled execution tier's program representation: a register-file
/// bytecode lowered from the IR (bytecode::lowerModule) and executed by the
/// direct-threaded VM (bytecode::VM).  Design points:
///
///  - Value names resolve to dense virtual registers at lower time; a frame
///    is a flat uint64_t array instead of the interpreter's hash map.
///  - Constants are folded into the instruction stream: integer binary ops
///    with a constant right-hand side become *Imm forms carrying the value
///    in the instruction, and remaining constants are materialized once per
///    frame from a per-function init template.
///  - The Privateer checks are specialized per logical-heap class
///    (CheckHeapRo/Private/Redux/ShortLived/Unrestricted) with the expected
///    tag bits baked into the instruction, so the separation check executes
///    as the single mask-AND+compare of paper §5.1.
///  - The planned DOALL loop is compiled in: edges entering the loop header
///    from outside carry a ParLoopEnter instruction that hands iterations
///    to Runtime::runParallel, and back edges carry IterEnd; both fall back
///    to plain jumps when no plan is armed, so the same code runs
///    sequentially, speculatively, and during misspeculation recovery.
///
/// A BytecodeProgram is self-contained: alloc sites, globals, and the
/// reduction registrations the transformed program needs are captured as
/// plain data at lower time, with no pointers back into the ir::Module.
/// That makes a lowered program relocatable — bytecode/Image.h serializes
/// it to a flat byte image that the invocation service ships to pre-forked
/// executive processes over sealed memfds.
///
/// The one exception is a profiling lowering (LowerOptions::Profile): its
/// event opcodes feed the §4.1 training run from the VM and name IR
/// entities through a side table of pointers held next to the program.
/// Such a program lives and dies in the process that lowered it.
///
/// The tree-walking interpreter remains the semantic oracle: the randomized
/// differential sweep byte-compares the two engines, and both share the
/// defined arithmetic edge semantics in interp/Semantics.h.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_BYTECODE_BYTECODE_H
#define PRIVATEER_BYTECODE_BYTECODE_H

#include "runtime/HeapKind.h"
#include "runtime/Reduction.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace privateer {
namespace bytecode {

/// Opcodes, one handler label each in the VM's computed-goto table.
/// Register operands live in A/B/C; Imm carries folded constants, jump
/// targets (instruction indices), byte counts, or side-table indices.
#define PRIVATEER_BC_OPCODES(X)                                               \
  /* moves */                                                                 \
  X(Mov)      /* r[A] = r[B] */                                               \
  X(MovImm)   /* r[A] = Imm */                                                \
  /* memory */                                                                \
  X(Alloca)   /* r[A] = zeroed frame alloc of Imm bytes; B = alloc site */    \
  X(Malloc)   /* r[A] = alloc of r[C] bytes; B = alloc site */                \
  X(Free)     /* dealloc r[A] */                                              \
  X(Load8)    /* r[A] = 8-byte load from r[B] (i64/f64/ptr) */                \
  X(LoadSx)   /* r[A] = sign-extended C-byte load from r[B] (i64) */          \
  X(LoadZx)   /* r[A] = zero-extended C-byte load from r[B] (ptr) */          \
  X(Store8)   /* 8-byte store of r[A] to r[B] */                              \
  X(StoreN)   /* store low C bytes of r[A] to r[B] */                         \
  /* integer arithmetic (wrapping, interp/Semantics.h) */                     \
  X(Add) X(Sub) X(Mul) X(SDiv) X(SRem)                                        \
  X(And) X(Or) X(Xor) X(Shl) X(Shr) /* r[A] = r[B] op r[C] */                 \
  X(AddImm) X(SubImm) X(MulImm) X(SDivImm) X(SRemImm)                         \
  X(AndImm) X(OrImm) X(XorImm) X(ShlImm) X(ShrImm) /* r[A] = r[B] op Imm */   \
  /* float arithmetic */                                                      \
  X(FAdd) X(FSub) X(FMul) X(FDiv) /* r[A] = r[B] op r[C] */                   \
  /* conversions */                                                           \
  X(SiToFp)   /* r[A] = (double)(int64)r[B] */                                \
  X(FpToSi)   /* r[A] = saturating (int64)(double)r[B] */                     \
  /* integer compares -> 0/1 */                                               \
  X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe)                       \
  X(CmpEqImm) X(CmpNeImm) X(CmpLtImm) X(CmpLeImm) X(CmpGtImm) X(CmpGeImm)     \
  /* float compares -> 0/1 */                                                 \
  X(FCmpEq) X(FCmpNe) X(FCmpLt) X(FCmpLe) X(FCmpGt) X(FCmpGe)                 \
  X(Select)   /* r[A] = r[B] ? r[C] : r[Imm] */                               \
  /* control */                                                               \
  X(Jmp)      /* pc = Imm */                                                  \
  X(JmpIfZ)   /* if (!r[A]) pc = Imm */                                       \
  X(JmpIfNZ)  /* if (r[A]) pc = Imm */                                        \
  X(Ret)      /* return r[A] (C!=0) or void (C==0) */                         \
  X(Call)     /* r[A] = call CallSites[Imm] */                                \
  X(Print)    /* format PrintSites[Imm], defer output */                      \
  /* Privateer intrinsics, checks specialized per heap class */               \
  X(CheckHeapRo) X(CheckHeapPrivate) X(CheckHeapRedux)                        \
  X(CheckHeapShortLived) X(CheckHeapUnrestricted)                             \
              /* if speculating: (r[A] & tagmask) == Imm or misspec */        \
  X(PrivRead)  /* if speculating: validate read of Imm bytes at r[A] */       \
  X(PrivWrite) /* if speculating: record write of Imm bytes at r[A] */        \
  X(SpecEq)    /* if speculating: r[A] == r[B] or misspec */                  \
  /* planned-DOALL interception */                                            \
  X(ParLoopEnter) /* run ParSites[Imm] via the runtime, else fall through */  \
  X(IterEnd)      /* end of one planned iteration; else pc = Imm */           \
  /* fused superinstructions (lowering peephole; see fusePairs).  Each      */\
  /* performs the work of the pair it replaces and skips the second         */\
  /* instruction, which stays in place as a valid jump target.              */\
  X(CmpEqJz) X(CmpNeJz) X(CmpLtJz) X(CmpLeJz) X(CmpGtJz) X(CmpGeJz)           \
              /* r[A] = r[B] op r[C]; if (!r[A]) pc = Imm else pc += 2 */     \
  X(CmpEqImmJz) X(CmpNeImmJz) X(CmpLtImmJz)                                   \
  X(CmpLeImmJz) X(CmpGtImmJz) X(CmpGeImmJz)                                   \
              /* r[A] = r[B] op Imm; if (!r[A]) pc = C else pc += 2 */        \
  X(AddLoad8)     /* r[Imm] = r[B] + r[C]; r[A] = 8-byte load r[Imm] */       \
  X(AddImmLoad8)  /* r[C] = r[B] + Imm;   r[A] = 8-byte load r[C] */          \
  X(AddStore8)    /* r[Imm] = r[B] + r[C]; 8-byte store r[A] to r[Imm] */     \
  X(AddImmStore8) /* r[C] = r[B] + Imm;   8-byte store r[A] to r[C] */        \
  /* DOACROSS token forwarding (appended: keeps the fused                  */\
  /* compare-family contiguity asserts valid)                              */\
  X(PostDep)      /* post token (iter r[A], value r[B]) on channel Imm */     \
  X(WaitDep)      /* r[A] = wait for iter r[B]'s token on channel Imm */      \
  /* training-run events (profiling lowering only; appended, and never     */\
  /* in an image).  Imm indexes the lowering's ProfileSites tables.        */\
  X(EvBlock)  /* block Imm entered from block r[A] (r[A] = Imm after); */     \
              /* C = its IR instruction count */                              \
  X(EvLoad)   /* Insts[Imm] loads C bytes at r[A] */                          \
  X(EvStore)  /* Insts[Imm] stores C bytes at r[A] */                         \
  X(EvAlloc)  /* Insts[Imm] allocated r[B] bytes at r[A] */                   \
  X(EvFree)   /* Insts[Imm] frees r[A] */                                     \
  X(EvCall)   /* call Insts[Imm] is entering its callee */                    \
  X(EvReturn) /* call Insts[Imm] returned */

enum class BcOp : uint16_t {
#define PRIVATEER_BC_ENUM(N) N,
  PRIVATEER_BC_OPCODES(PRIVATEER_BC_ENUM)
#undef PRIVATEER_BC_ENUM
};

inline constexpr unsigned kNumBcOps = 0
#define PRIVATEER_BC_COUNT(N) +1
    PRIVATEER_BC_OPCODES(PRIVATEER_BC_COUNT)
#undef PRIVATEER_BC_COUNT
    ;

/// Opcodes from here on are training-run events: their operands name
/// pointers of the lowering process, so no image may carry them.
inline constexpr unsigned kFirstEventOp = static_cast<unsigned>(BcOp::EvBlock);
static_assert(static_cast<unsigned>(BcOp::EvReturn) + 1 == kNumBcOps,
              "event opcodes must stay the last group");

const char *bcOpName(BcOp Op);

/// One 16-byte instruction.  A/B/C index the frame's register file.
struct BcInst {
  uint16_t Op = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int64_t Imm = 0;
};

static_assert(sizeof(BcInst) == 16, "keep instructions cache-friendly");

/// Call arguments are register lists in the per-function RegPool.
struct BcCallSite {
  uint32_t Callee = 0; ///< Index into BytecodeProgram::Functions.
  uint32_t ArgStart = 0;
  uint16_t ArgCount = 0;
};

struct BcPrintSite {
  std::string Format;
  uint32_t ArgStart = 0;
  uint16_t ArgCount = 0;
};

/// The compiled-in planned-DOALL loop (at most one per program, matching
/// the pipeline's single selected loop).
struct BcParLoopSite {
  uint16_t BeginReg = 0; ///< Canonical IV begin value.
  uint16_t BoundReg = 0; ///< Canonical IV bound value.
  uint16_t IvReg = 0;    ///< The IV phi's register, set per iteration.
  uint32_t BodyEntryPc = 0; ///< Header->body edge (one iteration's entry).
  uint32_t ExitEntryPc = 0; ///< Header->exit edge (post-loop continuation).
};

/// Heap routing of one Alloca/Malloc site, captured from the privatizer's
/// annotation at lower time (paper §4.4 Replace Allocation).  A site whose
/// objects are reduction objects registers each with the runtime as it
/// allocates it.
struct BcAllocSite {
  bool HasHeap = false;
  HeapKind Heap = HeapKind::Private;
  bool Reduces = false;
  ReduxElem Elem = ReduxElem::I64;
  ReduxOp Op = ReduxOp::Add;
};

/// One module global: everything the VM needs to allocate and address it.
struct BcGlobal {
  std::string Name;
  uint64_t SizeBytes = 0;
  bool HasHeap = false;
  HeapKind Heap = HeapKind::Private;
};

/// A reduction global the runtime must be told about before
/// the planned loop runs (identity init + checkpoint-time combine).
struct BcReduxGlobal {
  uint32_t GlobalIdx = 0;
  ReduxElem Elem = ReduxElem::I64;
  ReduxOp Op = ReduxOp::Add;
};

struct BcFunction {
  std::string Name;
  uint16_t NumArgs = 0;
  uint16_t NumRegs = 0;
  bool HasRetValue = false;
  std::vector<BcInst> Code;
  /// Frame-entry template: registers preloaded with materialized constants.
  std::vector<std::pair<uint16_t, uint64_t>> ConstInit;
  /// Frame-entry global-address loads: (register, global index).
  std::vector<std::pair<uint16_t, uint32_t>> GlobalInit;
  /// Argument-register lists for Call/Print sites.
  std::vector<uint16_t> RegPool;
  std::vector<BcCallSite> CallSites;
  std::vector<BcPrintSite> PrintSites;
  std::vector<BcParLoopSite> ParSites;
  /// Alloc sites (Alloca/Malloc operand B), routed through the
  /// MemoryManager so heap-assigned sites land in their logical heaps.
  std::vector<BcAllocSite> AllocSites;
};

struct BytecodeProgram {
  std::vector<BcFunction> Functions;
  std::map<std::string, uint32_t> FunctionIdx;
  /// Globals in module order; VM allocation order matches the interpreter.
  std::vector<BcGlobal> Globals;
  std::map<std::string, uint32_t> GlobalIdx; ///< Global name -> index.
  /// Reductions the transformed program must register before a parallel
  /// invocation (baked in by lowerForPrivatized from the HeapAssignment,
  /// so executing a prelowered program needs no classification results).
  std::vector<BcReduxGlobal> ReduxGlobals;
  /// Dependence-token channels the DOACROSS transform allocated; baked in
  /// so executing a prelowered program (e.g. in a warm executive) can size
  /// the runtime's token rings without the classification results.
  uint32_t NumDepChannels = 0;
};

} // namespace bytecode
} // namespace privateer

#endif // PRIVATEER_BYTECODE_BYTECODE_H
