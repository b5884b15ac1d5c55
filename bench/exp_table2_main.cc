// Table 2: main comparison — nine baselines + AnoT on the four point-
// timestamp datasets, three anomaly types, Precision / F0.5 / PR-AUC.
// The whole (dataset, model) grid runs as one experiment sweep: one
// worker-pool task per cell (ANOT_THREADS workers; 1 = serial loop),
// bit-identical metrics at every worker count.

#include <deque>
#include <map>

#include "common.h"

using namespace anot;
using namespace anot::bench;

int main() {
  PrintHeader("Table 2: inductive anomaly detection comparison");
  ProtocolOptions popts;
  const std::vector<std::string> datasets = {"icews14", "icews05-15",
                                             "yago11k", "gdelt"};

  std::deque<Workload> workloads;
  for (const std::string& name : datasets) {
    workloads.push_back(MakeWorkload(name));
    const Workload& w = workloads.back();
    std::printf("dataset %s: |F|=%zu ...\n", w.config.name.c_str(),
                w.graph->num_facts());
  }

  std::vector<SweepCell> cells;
  for (const Workload& w : workloads) {
    for (const std::string& baseline : AllBaselineNames()) {
      cells.push_back(BaselineCell(w, popts, baseline));
    }
    cells.push_back(MakeCell(w, popts, "AnoT",
                             ModelFactory<AnoTModel>(
                                 SweepCellAnoTOptions(w.config.name))));
  }
  const std::vector<EvalResult> results =
      RunHarnessSweep(std::move(cells)).Results();

  // Serving cost is timing, not a metric: keep it off the byte-stable
  // stdout tables.
  for (const auto& r : results) {
    if (r.model != "AnoT") continue;
    std::fprintf(
        stderr,
        "%s AnoT test-window throughput: %.0f samples/s "
        "(%.2fs wall incl. observe-valid ingest)\n",
        r.dataset.c_str(), r.throughput, r.test_seconds);
  }
  std::printf("\n%s", Reporter::RenderComparison(results).c_str());

  // Paper headline: AnoT leads on average AUC across types and datasets.
  std::map<std::string, std::pair<double, int>> per_model;
  for (const auto& r : results) {
    const double mean_auc =
        (r.conceptual.pr_auc + r.time.pr_auc + r.missing.pr_auc) / 3.0;
    per_model[r.model].first += mean_auc;
    per_model[r.model].second += 1;
  }
  // Every (dataset, model) cell must contribute to the headline exactly
  // once — a dropped (or double-counted) cell would skew the mean
  // silently.
  ANOT_CHECK(results.size() ==
             datasets.size() * (AllBaselineNames().size() + 1));
  ANOT_CHECK(per_model.size() == AllBaselineNames().size() + 1);
  for (const auto& [model, acc] : per_model) {
    ANOT_CHECK(acc.second == static_cast<int>(datasets.size()))
        << model << " contributed " << acc.second << " cells, expected "
        << datasets.size();
  }
  double anot_auc = 0, best_baseline_auc = 0;
  std::string best_baseline;
  for (const auto& [model, acc] : per_model) {
    const double mean = acc.first / acc.second;
    if (model == "AnoT") {
      anot_auc = mean;
    } else if (mean > best_baseline_auc) {
      best_baseline_auc = mean;
      best_baseline = model;
    }
  }
  std::printf("mean AUC over all datasets and anomaly types: AnoT %.3f vs "
              "best baseline %s %.3f\n",
              anot_auc, best_baseline.c_str(), best_baseline_auc);
  return 0;
}
