//===- Interpreter.cpp - Tracing Pascal interpreter -----------------------===//

#include "interp/Interpreter.h"

#include "bytecode/Bytecode.h"
#include "bytecode/VM.h"
#include "interp/ExecState.h"
#include "obs/Trace.h"

using namespace gadt;
using namespace gadt::interp;
using namespace gadt::pascal;

TraceListener::~TraceListener() = default;

Value gadt::interp::defaultValue(const Type *Ty) {
  if (!Ty)
    return Value();
  switch (Ty->getKind()) {
  case Type::Kind::Integer:
    return Value::makeInt(0);
  case Type::Kind::Boolean:
    return Value::makeBool(false);
  case Type::Kind::String:
    return Value::makeStr("");
  case Type::Kind::Array: {
    ArrayVal A;
    A.Lo = Ty->getLowerBound();
    A.Hi = Ty->getUpperBound();
    A.Elems.assign(static_cast<size_t>(A.size()), 0);
    return Value::makeArray(std::move(A));
  }
  }
  return Value();
}

struct Interpreter::Impl : ExecState {
  /// Code compiled by this interpreter when none was injected through
  /// InterpOptions::Code (or the injected unit does not match).
  std::shared_ptr<const bytecode::CompiledProgram> OwnCode;
  bool CompileAttempted = false;
  std::string CompileError;
  bytecode::VMState *VS = nullptr;

  Impl(const Program &Prog, InterpOptions Opts) : ExecState(Prog, Opts) {}
  ~Impl() {
    if (VS)
      bytecode::destroyVMState(VS);
  }

  /// The compiled unit to run, preferring code injected via InterpOptions
  /// (the RuntimeContext cache) when it matches this program and checking
  /// mode; otherwise compiles once. Null when the compiler rejected the
  /// program (CompileError says why).
  const bytecode::CompiledProgram *code() {
    if (Opts.Code && Opts.Code->Prog == &Prog &&
        Opts.Code->Checked == Opts.DetectUninitialized)
      return Opts.Code.get();
    if (!CompileAttempted) {
      CompileAttempted = true;
      OwnCode = bytecode::compile(Prog, Opts.DetectUninitialized,
                                  &CompileError);
    }
    return OwnCode.get();
  }

  bytecode::VMState &vm() {
    if (!VS)
      VS = bytecode::createVMState();
    return *VS;
  }

  RuntimeError compileFailure() const {
    return {Prog.getMain()->getLoc(),
            "program cannot be executed: " + CompileError};
  }

  ExecResult run() {
    const bytecode::CompiledProgram *CP = code();
    if (!CP) {
      ExecResult Res;
      Res.Error = compileFailure();
      return Res;
    }
    return bytecode::run(*this, *CP, vm());
  }

  CallOutcome callRoutine(const std::string &Name, std::vector<Value> Args,
                          const std::vector<Binding> &GlobalPresets) {
    CallOutcome Out;
    bool Ambiguous = false;
    const RoutineDecl *Callee = findRoutine(Prog, Name, &Ambiguous);
    if (!Callee) {
      Out.Error = {SourceLoc(),
                   Ambiguous ? "routine name '" + Name +
                                   "' is ambiguous; qualify it"
                             : "no routine named '" + Name + "'"};
      return Out;
    }
    if (Args.size() != Callee->getParams().size()) {
      Out.Error = {SourceLoc(), "argument count mismatch calling '" + Name +
                                    "'"};
      return Out;
    }
    const bytecode::CompiledProgram *CP = code();
    if (!CP) {
      Out.Error = compileFailure();
      return Out;
    }
    return bytecode::call(*this, *CP, vm(), Callee, std::move(Args),
                          GlobalPresets);
  }
};

Interpreter::Interpreter(const Program &Prog, InterpOptions Opts)
    : P(std::make_unique<Impl>(Prog, Opts)) {
  // Every production path reaches the interpreter through pascal::analyze(),
  // which assigns frame slots; hand-built programs in tests may not have
  // them yet. The lazy assignment is idempotent and happens before any
  // batch thread could share the program (the runtime's programs are
  // analyzed when they are cached), so it is not a data race in practice.
  if (!Prog.areSlotsAssigned())
    assignStorageSlots(const_cast<Program &>(Prog));
}

Interpreter::~Interpreter() = default;

void Interpreter::setInput(std::vector<int64_t> Input) {
  P->Input = std::move(Input);
}

void Interpreter::setListener(TraceListener *L) { P->Listener = L; }

ExecResult Interpreter::run() {
  obs::Span Span("interp.run", "interp");
  ExecResult R = P->run();
  Span.arg("steps", R.Steps);
  Span.arg("units", R.UnitsExecuted);
  return R;
}

CallOutcome Interpreter::callRoutine(const std::string &Name,
                                     std::vector<Value> Args,
                                     const std::vector<Binding> &Presets) {
  return P->callRoutine(Name, std::move(Args), Presets);
}
