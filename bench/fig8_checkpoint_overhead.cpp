// Figure 8: single-checkpoint overhead decomposition (local checkpoint /
// checkpoint transfer / comparison) for the six mini-app variants of
// Table 2, under default / mixed / column mappings and the checksum
// method, from 1K to 64K cores per replica (256 - 16384 BG/P nodes).
//
// Extended with a simulator-backed sweep of the checkpoint redundancy
// schemes (src/ckpt): local / partner / xor (rs with one parity block per
// stripe), fault-free and under a hard failure storm, reporting run time,
// redundancy traffic, and how each run recovered (group rebuilds vs
// scratch restarts).
#include <cstdio>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "common/table.h"
#include "failure/distributions.h"
#include "sim/phase_model.h"

using namespace acr;
using namespace acr::sim;

namespace {

void redundancy_scheme_sweep() {
  std::printf(
      "Redundancy scheme sweep (simulator, Jacobi3D 16 tasks / 8 nodes per "
      "replica):\nfault-free overhead and hard-failure recovery under "
      "--ckpt-scheme={local,partner,xor}\n");
  TablePrinter table({"scheme", "faults", "status", "time", "ckpts",
                      "failures", "recoveries", "parity MB", "rebuilds",
                      "scratch"});
  struct Row {
    const char* label;
    ckpt::Scheme scheme;
  };
  for (double mtbf : {0.0, 0.03}) {
    for (Row row : {Row{"local", ckpt::Scheme::Local},
                    Row{"partner", ckpt::Scheme::Partner},
                    Row{"xor", ckpt::Scheme::Rs}}) {
      apps::Jacobi3DConfig j;
      j.tasks_x = j.tasks_y = 2;
      j.tasks_z = 4;
      j.block_x = j.block_y = j.block_z = 8;
      j.iterations = 60;
      j.slots_per_node = 2;
      j.seconds_per_point = 1e-5;
      AcrConfig ac;
      ac.scheme = ResilienceScheme::Strong;
      ac.redundancy = row.scheme;
      ac.xor_group_size = 4;
      ac.rs_parity = 1;
      ac.checkpoint_interval = 0.01;
      ac.heartbeat_period = 0.0004;  // prompt detection, as in the fuzz suite
      ac.heartbeat_timeout = 0.0016;
      rt::ClusterConfig cc;
      cc.nodes_per_replica = j.nodes_needed();
      cc.spare_nodes = 16;
      cc.seed = 42;
      AcrRuntime runtime(ac, cc);
      runtime.set_task_factory(j.factory());
      runtime.setup();
      if (mtbf > 0.0) {
        FaultPlan plan;
        plan.arrivals = std::make_shared<failure::RenewalProcess>(
            std::make_shared<failure::Exponential>(mtbf));
        plan.sdc_fraction = 0.0;
        plan.horizon = 0.3;  // storm across most of the run, then let it finish
        runtime.set_fault_plan(plan);
      }
      RunSummary s = runtime.run(60.0);
      table.add_row(
          {row.label, mtbf > 0.0 ? "hard" : "none",
           s.complete ? "complete" : (s.failed ? "failed" : "wedged"),
           TablePrinter::fmt(s.finish_time, 4), std::to_string(s.checkpoints),
           std::to_string(s.hard_failures), std::to_string(s.recoveries),
           TablePrinter::fmt(
               static_cast<double>(s.parity_bytes_sent) / 1.0e6, 2),
           std::to_string(s.xor_rebuilds),
           std::to_string(s.scratch_restarts)});
    }
  }
  table.print();
  std::printf(
      "\nlocal keeps no remote copy (zero redundancy traffic; every hard "
      "failure is a scratch restart);\npartner mirrors the full image to "
      "the buddy replica; xor ships 1/(k-1) of an image per group member\n"
      "and rebuilds a dead member from k-1 survivors + parity.\n\n");
}

}  // namespace

int main() {
  redundancy_scheme_sweep();
  // 4 cores per BG/P node: 1k..64k cores per replica.
  const std::vector<int> nodes_per_replica = {256, 1024, 4096, 16384};
  const DetectionMode modes[] = {DetectionMode::FullDefault,
                                 DetectionMode::FullMixed,
                                 DetectionMode::FullColumn,
                                 DetectionMode::Checksum};

  for (const auto& app : apps::kTable2) {
    std::printf("Figure 8 — %s (%s, %s): single checkpoint overhead (s)\n",
                app.name, app.model, app.config);
    TablePrinter table({"cores/replica", "mode", "local ckpt", "transfer",
                        "comparison", "total"});
    for (int nodes : nodes_per_replica) {
      for (DetectionMode mode : modes) {
        PhaseModel pm(nodes, app);
        CheckpointPhases p = pm.checkpoint_phases(mode);
        table.add_row({std::to_string(nodes * apps::kCoresPerNode),
                       detection_mode_name(mode),
                       TablePrinter::fmt(p.local_checkpoint, 4),
                       TablePrinter::fmt(p.transfer, 4),
                       TablePrinter::fmt(p.comparison, 4),
                       TablePrinter::fmt(p.total(), 4)});
      }
    }
    table.print();
    std::printf("\n");
  }

  std::printf(
      "Paper shape check: default transfer grows ~4x from 1K to 4K cores "
      "per replica (Z: 8->32) then flattens;\ncolumn/mixed/checksum are "
      "scale-invariant; checksum wins for the small-checkpoint MD apps but "
      "loses to column\nfor the high-memory-pressure apps (extra ~4 "
      "instructions/byte of compute).\n");
  return 0;
}
