//===- DynamicSlicer.h - Dynamic slicing over execution trees ---*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprocedural *dynamic* slicing at procedure granularity, the
/// [Kamkar-91b] variant the paper lists as under implementation: while
/// tracing, the interpreter tracks for every value the set of unit
/// executions whose outputs flowed into it (data and dynamic control
/// dependences — see InterpOptions::TrackDeps), and the tree records it
/// for each output binding. A slice on one output of one execution-tree
/// node is then simply the recorded dependence set of that output,
/// closed over tree ancestry.
///
/// Dynamic slices are at most as large as static ones on the same
/// criterion, usually smaller: only what actually influenced this run
/// counts.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SLICING_DYNAMICSLICER_H
#define GADT_SLICING_DYNAMICSLICER_H

#include "trace/ExecTree.h"
#include "support/NodeSet.h"

#include <cstdint>
#include <string>

namespace gadt {
namespace slicing {

/// Retained node ids for the dynamic slice on output \p OutputName of
/// \p Criterion: every node in the subtree whose execution contributed to
/// that output value, plus the ancestors needed to keep the result a tree.
/// Requires the tree to have been built with dependence tracking; without
/// it no output has a dependence set and only \p Criterion is retained.
support::NodeSet dynamicSlice(const trace::ExecNode *Criterion,
                            const std::string &OutputName);

} // namespace slicing
} // namespace gadt

#endif // GADT_SLICING_DYNAMICSLICER_H
