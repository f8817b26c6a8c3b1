// Package experiments reproduces every figure of the paper's evaluation
// (§5–§6): the single-machine colocation sweeps of Figs. 4–8, the
// cluster runs of Figs. 9–10, the §1 utilization headline, and the
// repo's extensions (full-stack scenario, DES timeline, batch-harvest
// frontier). Absolute values differ from the paper's testbed (this is a
// simulator, not Bing hardware); the calibration tests assert the
// published *shape* — who wins, by what rough factor, where the
// crossovers fall.
//
// Every experiment registers in the Registry as a named set of
// independent Cells — one seeded simulation per sweep point — plus an
// Assemble hook that folds completed cell results back into the
// figure's typed value and table. Cells share nothing (each builds its
// own engine from its own seed), so the pool in pool.go executes them
// concurrently with results bit-identical to a sequential run.
// Registry.Run, with its shard and dispatch counterparts, is the one
// way to execute a registered experiment. Reports flow out three ways:
// the classic ASCII tables, flat JSON/CSV artifact rows
// (WriteArtifacts), and the committed markdown reproduction report
// (RenderMarkdown → RESULTS.md), which CI regenerates and diffs as an
// evaluation-regression gate.
package experiments
