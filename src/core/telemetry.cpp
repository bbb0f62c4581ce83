#include "core/telemetry.hpp"

#include <algorithm>
#include <ostream>

namespace tdg {

TelemetryConfig telemetry_config(const EnvConfig& env) {
  TelemetryConfig cfg;
  cfg.enabled = env.telemetry.value_or(EnvSwitch::Off) != EnvSwitch::Off;
  cfg.dump = env.telemetry == EnvSwitch::Dump;
  if (!env.telemetry_file.empty()) cfg.path = env.telemetry_file;
  if (env.telemetry_period_ms) {
    cfg.period_ns = *env.telemetry_period_ms * 1'000'000;
  }
  return cfg;
}

TelemetryHub& TelemetryHub::instance() {
  static TelemetryHub hub;
  return hub;
}

std::shared_ptr<TelemetryRing> TelemetryHub::attach(int rank,
                                                    std::size_t capacity) {
  auto ring = std::make_shared<TelemetryRing>(capacity);
  std::lock_guard<std::mutex> g(mu_);
  rings_.emplace_back(rank, ring);
  return ring;
}

std::vector<RankTelemetry> TelemetryHub::collect() const {
  std::vector<std::pair<int, std::shared_ptr<TelemetryRing>>> rings;
  {
    std::lock_guard<std::mutex> g(mu_);
    rings = rings_;
  }
  std::vector<RankTelemetry> out;
  for (const auto& [rank, ring] : rings) {
    auto it = std::find_if(out.begin(), out.end(), [rank = rank](
                               const RankTelemetry& t) {
      return t.rank == rank;
    });
    if (it == out.end()) {
      out.push_back(RankTelemetry{rank, {}});
      it = out.end() - 1;
    }
    std::vector<TelemetrySample> samples = ring->snapshot();
    it->samples.insert(it->samples.end(), samples.begin(), samples.end());
  }
  for (RankTelemetry& t : out) {
    std::stable_sort(t.samples.begin(), t.samples.end(),
                     [](const TelemetrySample& a, const TelemetrySample& b) {
                       return a.t_ns < b.t_ns;
                     });
  }
  std::sort(out.begin(), out.end(),
            [](const RankTelemetry& a, const RankTelemetry& b) {
              return a.rank < b.rank;
            });
  return out;
}

std::vector<RankTelemetry> TelemetryHub::drain() {
  std::vector<RankTelemetry> out = collect();
  std::lock_guard<std::mutex> g(mu_);
  rings_.clear();
  return out;
}

void TelemetryHub::write_json(std::ostream& os,
                              const std::vector<RankTelemetry>& telemetry) {
  os << "{\"ranks\":[";
  bool first_rank = true;
  for (const RankTelemetry& t : telemetry) {
    if (!first_rank) os << ',';
    first_rank = false;
    os << "\n{\"rank\":" << t.rank << ",\"samples\":[";
    bool first = true;
    for (const TelemetrySample& s : t.samples) {
      if (!first) os << ',';
      first = false;
      os << "\n{\"t_ns\":" << s.t_ns
         << ",\"tasks_executed\":" << s.tasks_executed
         << ",\"tasks_ready\":" << s.tasks_ready
         << ",\"sends\":" << s.sends << ",\"recvs\":" << s.recvs
         << ",\"bytes_sent\":" << s.bytes_sent
         << ",\"allreduces\":" << s.allreduces
         << ",\"retransmits\":" << s.retransmits
         << ",\"dup_suppressed\":" << s.dup_suppressed
         << ",\"giveups\":" << s.giveups
         << ",\"drops_injected\":" << s.drops_injected
         << ",\"ranks_failed\":" << s.ranks_failed << '}';
    }
    os << "]}";
  }
  os << "\n]}\n";
}

}  // namespace tdg
