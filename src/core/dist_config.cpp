#include "core/dist_config.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <numeric>

namespace dlouvain::core {

std::string variant_label(Variant variant, double alpha) {
  char buf[64];
  switch (variant) {
    case Variant::kBaseline:
      return "Baseline";
    case Variant::kThresholdCycling:
      return "Threshold Cycling";
    case Variant::kEt:
      std::snprintf(buf, sizeof buf, "ET(%.2f)", alpha);
      return buf;
    case Variant::kEtc:
      std::snprintf(buf, sizeof buf, "ETC(%.2f)", alpha);
      return buf;
  }
  return "?";
}

std::optional<Variant> parse_variant(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lower == "baseline") return Variant::kBaseline;
  if (lower == "tc" || lower == "threshold-cycling") return Variant::kThresholdCycling;
  if (lower == "et") return Variant::kEt;
  if (lower == "etc") return Variant::kEtc;
  return std::nullopt;
}

double DistConfig::threshold_for_phase(int phase) const {
  if (!uses_cycling()) return base.threshold;
  constexpr int kCycleTotal = std::accumulate(kCycleLengths.begin(), kCycleLengths.end(), 0);
  int pos = phase % kCycleTotal;
  for (std::size_t i = 0; i < kCycleLengths.size(); ++i) {
    if (pos < kCycleLengths[i]) return kCycleThresholds[i];
    pos -= kCycleLengths[i];
  }
  return kCycleThresholds.back();
}

double DistConfig::min_threshold() const {
  if (!uses_cycling()) return base.threshold;
  return *std::min_element(kCycleThresholds.begin(), kCycleThresholds.end());
}

}  // namespace dlouvain::core
