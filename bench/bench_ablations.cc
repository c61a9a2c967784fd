// Ablations over AC/DC's design choices (DESIGN.md §4):
//  A. Enforced-window floor: 1 MSS (ours) vs 2 MSS (host DCTCP's CWND
//     floor) vs 4KB sub-MSS, at 47-to-1 incast — the mechanism behind
//     Fig. 19a's AC/DC-beats-DCTCP result.
//  B. DCTCP gain g: 1/4, 1/16 (default), 1/64 on the dumbbell — stability
//     vs responsiveness of the alpha EWMA.
//  C. Feedback transport: piggy-backed PACKs vs dedicated FACKs only
//     (forced by a tiny feedback MTU) — the §3.2 "most feedback takes the
//     form of PACKs" efficiency claim.
//  D. Enforcement on vs observer mode, CUBIC tenants on the dumbbell — what
//     the RWND rewrite itself buys.
#include <cstdio>

#include "common.h"

using namespace acdc;
using namespace acdc::bench;

namespace {

void ablation_floor() {
  stats::Table t({"rwnd floor", "p50 RTT ms", "p99.9 RTT ms",
                  "avg Mbps/flow", "fairness"});
  struct Row {
    const char* label;
    std::int64_t floor_bytes;
  };
  for (const Row& row : {Row{"1 MSS (default)", 0}, Row{"2 MSS", 2 * 8960},
                         Row{"4 KB (sub-MSS)", 4096}}) {
    RunConfig cfg;
    cfg.mode = exp::Mode::kAcdc;
    cfg.duration = sim::seconds(1.2);
    cfg.probe_interval = sim::microseconds(500);
    cfg.acdc.min_rwnd_bytes = row.floor_bytes;
    const RunResult r = run_incast(cfg, 47);
    t.add_row({row.label, stats::Table::num(r.rtt_ms.median()),
               stats::Table::num(r.rtt_ms.percentile(99.9)),
               stats::Table::num(r.total_gbps() * 1000.0 / 47),
               stats::Table::num(r.jain)});
  }
  t.print("Ablation A — enforced-window floor at 47-to-1 incast");
  std::printf("Lower floors keep the standing queue smaller (the Fig. 19a "
              "mechanism); sub-MSS floors trade queueing for small-segment "
              "overhead.\n");
}

void ablation_gain() {
  stats::Table t({"DCTCP g", "p50 RTT ms", "p99.9 RTT ms", "avg Gbps",
                  "fairness"});
  for (double g : {1.0 / 4, 1.0 / 16, 1.0 / 64}) {
    RunConfig cfg;
    cfg.mode = exp::Mode::kAcdc;
    cfg.duration = sim::seconds(1.5);
    cfg.acdc.vcc.dctcp.g = g;
    const RunResult r = run_dumbbell(cfg, std::vector<FlowSpec>(5));
    t.add_row({stats::Table::num(g), stats::Table::num(r.rtt_ms.median()),
               stats::Table::num(r.rtt_ms.percentile(99.9)),
               gbps(r.total_gbps() / 5), stats::Table::num(r.jain)});
  }
  t.print("Ablation B — virtual-DCTCP alpha gain g (dumbbell)");
}

void ablation_feedback() {
  stats::Table t({"feedback", "avg Gbps", "p50 RTT ms", "PACKs", "FACKs"});
  for (bool fack_only : {false, true}) {
    exp::DumbbellConfig dc;
    dc.scenario = exp::scenario_config_for(exp::Mode::kAcdc);
    exp::Dumbbell bell(dc);
    exp::Scenario& s = bell.scenario();
    vswitch::AcdcConfig acdc;
    if (fack_only) acdc.mtu_bytes = 48;  // PACK never fits -> always FACK
    std::int64_t packs = 0;
    std::int64_t facks = 0;
    std::vector<vswitch::AcdcVswitch*> vss;
    for (int i = 0; i < bell.pairs(); ++i) {
      vss.push_back(s.attach_acdc(bell.sender(i), acdc));
      vss.push_back(s.attach_acdc(bell.receiver(i), acdc));
    }
    std::vector<host::BulkApp*> apps;
    for (int i = 0; i < bell.pairs(); ++i) {
      apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i),
                                     s.tcp_config(tcp::CcId::kCubic), 0));
    }
    auto* probe = s.add_rtt_probe(bell.sender(0), bell.receiver(0),
                                  s.tcp_config(tcp::CcId::kCubic),
                                  sim::milliseconds(50),
                                  sim::milliseconds(1));
    s.run_until(sim::seconds(1.5));
    double total = 0;
    for (auto* a : apps) {
      total += a->goodput_bps(sim::milliseconds(300), sim::seconds(1.5));
    }
    for (auto* vs : vss) {
      packs += vs->stats().packs_attached;
      facks += vs->stats().facks_sent;
    }
    t.add_row({fack_only ? "FACK-only (forced)" : "PACK (default)",
               gbps(total / 5 / 1e9),
               stats::Table::num(probe->rtt_ms().median()),
               std::to_string(packs), std::to_string(facks)});
  }
  t.print("Ablation C — PACK piggy-backing vs dedicated FACK packets");
  std::printf("FACK-only doubles the reverse-path packet count for the same "
              "feedback; piggy-backing is effectively free (§3.2).\n");
}

void ablation_enforcement() {
  stats::Table t({"enforcement", "p50 RTT ms", "p99.9 RTT ms", "drop %"});
  for (bool enforce : {true, false}) {
    RunConfig cfg;
    cfg.mode = exp::Mode::kAcdc;
    cfg.duration = sim::seconds(1.5);
    cfg.acdc.enforce = enforce;
    const RunResult r = run_dumbbell(cfg, std::vector<FlowSpec>(5));
    t.add_row({enforce ? "on (AC/DC)" : "off (observer)",
               stats::Table::num(r.rtt_ms.median()),
               stats::Table::num(r.rtt_ms.percentile(99.9)),
               stats::Table::num(100 * r.drop_rate)});
  }
  t.print("Ablation D — RWND enforcement on/off, CUBIC tenants");
  std::printf("Observer mode computes the same windows but CUBIC keeps "
              "filling the buffer; only the rewrite changes behaviour.\n");
}

}  // namespace

int main() {
  std::printf("AC/DC design-choice ablations\n");
  ablation_floor();
  ablation_gain();
  ablation_feedback();
  ablation_enforcement();
  return 0;
}
