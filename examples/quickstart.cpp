// Quickstart: build a dataflow graph by hand, sweep the register-file port
// constraints through the isex::Explorer facade, and print the structured
// exploration report as JSON — the calls every other driver builds on:
// identify() for one block, and run() for raw graphs (request.graphs) or a
// named workload. With `--emit-dir DIR` the graph-level artifacts
// (cut-highlighted dot rendering plus the attribution manifest) are written
// to disk through the emission backends. With `--ir FILE` the full-pipeline run at the end
// explores a textual `.isex` workload file instead of the hand-built graph.
#include <iostream>
#include <string>

#include "api/explorer.hpp"
#include "dfg/dot.hpp"
#include "support/table.hpp"

using namespace isex;

int main(int argc, char** argv) {
  std::string emit_dir;
  std::string ir_file;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--emit-dir" && i + 1 < argc) {
      emit_dir = argv[++i];
    } else if (std::string(argv[i]) == "--ir" && i + 1 < argc) {
      ir_file = argv[++i];
    }
  }
  // A tiny multiply-accumulate-saturate kernel:
  //   t = a * b + c;  r = t < 255 ? t : 255
  Dfg g;
  const NodeId a = g.add_input("a");
  const NodeId b = g.add_input("b");
  const NodeId c = g.add_input("c");
  const NodeId mul = g.add_op(Opcode::mul);
  const NodeId add = g.add_op(Opcode::add);
  const NodeId cmp = g.add_op(Opcode::lt_s);
  const NodeId sel = g.add_op(Opcode::select);
  const NodeId lim = g.add_constant(255);
  g.add_edge(a, mul);
  g.add_edge(b, mul);
  g.add_edge(mul, add);
  g.add_edge(c, add);
  g.add_edge(add, cmp);
  g.add_edge(lim, cmp);
  g.add_edge(cmp, sel);
  g.add_edge(add, sel);
  g.add_edge(lim, sel);
  g.add_output(sel, "r");
  g.finalize();

  const Explorer explorer;

  TextTable table({"Nin", "Nout", "best cut", "ops", "IN", "OUT", "sw", "hw", "merit",
                   "cuts considered"});
  for (const auto& [nin, nout] : {std::pair{2, 1}, {3, 1}, {4, 2}}) {
    Constraints cons;
    cons.max_inputs = nin;
    cons.max_outputs = nout;
    const SingleCutResult r = explorer.identify(g, cons);
    table.add_row({std::to_string(nin), std::to_string(nout), r.cut.to_string(),
                   TextTable::num(r.metrics.num_ops), TextTable::num(r.metrics.inputs),
                   TextTable::num(r.metrics.outputs), TextTable::num(r.metrics.sw_cycles),
                   TextTable::num(r.metrics.hw_cycles), TextTable::num(r.merit, 2),
                   TextTable::num(r.stats.cuts_considered)});
  }
  std::cout << "isex quickstart — exact cut identification on a MAC+saturate kernel\n\n";
  table.print(std::cout);

  Constraints cons;
  cons.max_inputs = 3;
  cons.max_outputs = 1;
  const SingleCutResult best = explorer.identify(g, cons);
  std::cout << "\nGraphviz rendering with the 3-input/1-output cut highlighted:\n\n"
            << to_dot(g, std::span<const BitVector>{&best.cut, 1});

  // The same exploration as one pipeline call, reported as JSON. Graph-only
  // requests can still emit graph-level artifacts (dot + manifest); with
  // --ir the request names a `.isex` file instead (find_workload dispatches
  // path-looking names to the textual-IR loader).
  ExplorationRequest request;
  if (ir_file.empty()) {
    request.graphs.push_back(g);
    request.num_instructions = 1;
  } else {
    request.workload = ir_file;
    request.num_instructions = 8;
  }
  request.scheme = "iterative";
  request.constraints = cons;
  if (!emit_dir.empty()) {
    request.emission.targets = {"dot", "manifest"};
    request.emission.out_dir = emit_dir;
  }
  const ExplorationReport report = explorer.run(request);
  std::cout << "\nStructured report of the full pipeline (scheme 'iterative'"
            << (ir_file.empty() ? "" : ", workload " + ir_file) << "):\n\n"
            << report.to_json_string() << "\n";
  if (!emit_dir.empty()) {
    std::cout << "\nwrote " << report.emission.artifacts.size() << " artifacts to "
              << emit_dir << "\n";
  }
  return 0;
}
