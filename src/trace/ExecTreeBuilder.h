//===- ExecTreeBuilder.h - Build trees from interpreter events --*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical TraceListener: assembles an ExecTree from the
/// interpreter's unit enter/exit events (the paper's tracing phase).
///
/// The interpreter assigns unit ids densely in preorder (entry order), so
/// enterUnit appends the node at index id of the arena and exitUnit fixes
/// the subtree size as "nodes allocated since entry" — the interval
/// [id, id + size) invariant costs nothing extra to establish.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TRACE_EXECTREEBUILDER_H
#define GADT_TRACE_EXECTREEBUILDER_H

#include "interp/Interpreter.h"
#include "trace/ExecTree.h"

#include <memory>
#include <vector>

namespace gadt {
namespace trace {

/// Collects unit events into an ExecTree. One builder builds one tree;
/// call \c takeTree after the run.
class ExecTreeBuilder : public interp::TraceListener {
public:
  ExecTreeBuilder() : Tree(std::make_unique<ExecTree>()) {}

  void enterUnit(const interp::UnitStart &Start) override;
  void exitUnit(uint32_t NodeId, std::vector<interp::Binding> Inputs,
                std::vector<interp::Binding> Outputs,
                std::vector<interp::DepSet> OutputDeps) override;

  /// Hands over the finished tree (the builder is empty afterwards).
  /// Tolerates an aborted run: units that never exited get their subtree
  /// sizes closed off here, with whatever bindings were recorded.
  std::unique_ptr<ExecTree> takeTree();

private:
  std::unique_ptr<ExecTree> Tree;
  /// Ids (not pointers — the arena may reallocate) of entered-but-not-yet-
  /// exited units, innermost last.
  std::vector<uint32_t> OpenIds;
};

/// Convenience: runs \p P (with optional input) and returns the execution
/// tree, or null when execution failed. \p Result receives the run outcome.
std::unique_ptr<ExecTree> buildExecTree(const pascal::Program &P,
                                        interp::InterpOptions Opts,
                                        std::vector<int64_t> Input,
                                        interp::ExecResult *Result = nullptr);

} // namespace trace
} // namespace gadt

#endif // GADT_TRACE_EXECTREEBUILDER_H
