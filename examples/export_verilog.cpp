//===- examples/export_verilog.cpp - Print the synthesisable Silver core -------===//
//
// Prints the Silver core's Verilog module: the circuit, the deeply
// embedded Verilog AST generated from it and type-checked (the
// vars_has_type obligation), all from the one shared design
// (cpu::coreDesign()), pretty-printed as the synthesisable SystemVerilog
// the paper feeds to Vivado for the PYNQ-Z1 board.  Writes silver_cpu.sv
// to the current directory and prints a summary.
//
//===----------------------------------------------------------------------===//

#include "analysis/VerilogLint.h"
#include "cpu/Sim.h"
#include "hdl/Printer.h"

#include <cstdio>
#include <fstream>

using namespace silver;

int main() {
  const cpu::CoreDesign &Design = cpu::coreDesign();
  const Result<hdl::VModule> &Module = Design.module();
  if (!Module) {
    std::fprintf(stderr, "export_verilog: %s\n",
                 Module.error().str().c_str());
    return 1;
  }
  const rtl::Circuit &Circuit = Design.core()->Circuit;
  std::vector<analysis::LintDiag> Diags = analysis::lintModule(*Module);
  if (!Diags.empty()) {
    for (const analysis::LintDiag &D : Diags)
      std::fprintf(stderr, "lint: %s\n", analysis::formatDiag(D).c_str());
    return 1;
  }
  std::string Text = hdl::printModule(*Module);
  std::ofstream Out("silver_cpu.sv");
  Out << Text;
  Out.close();

  std::printf("circuit: %zu nodes, %zu registers, %zu memories\n",
              Circuit.Nodes.size(), Circuit.Regs.size(),
              Circuit.Mems.size());
  std::printf("module:  %zu declarations, %zu processes, lint clean, "
              "%zu bytes of SystemVerilog -> silver_cpu.sv\n",
              Module->Decls.size(), Module->Processes.size(), Text.size());
  // Show the first lines as a taste.
  size_t Shown = 0, Lines = 0;
  while (Shown < Text.size() && Lines < 12) {
    size_t End = Text.find('\n', Shown);
    std::printf("| %.*s\n", int(End - Shown), Text.c_str() + Shown);
    Shown = End + 1;
    ++Lines;
  }
  return 0;
}
