#pragma once
// Three-level fat tree (FT-3; Tianhe-2 class).
//
// Two variants are provided because the paper is internally inconsistent
// (see DESIGN.md §2.4):
//  * Classic    — standard k-ary fat tree built from radix-2p switches:
//                 2p pods, p edge + p aggregation switches per pod,
//                 p^2 cores; Nr = 5p^2, N = 2p^3 (matches the paper's text).
//  * PaperSlim  — the variant whose parameters appear in the paper's
//                 Table IV and Section V (k = 44, p = 22, Nr = 3p^2 = 1452,
//                 N = p^3 = 10648): p pods, p edge + p agg per pod, p^2
//                 cores each using only p of their ports.
//
// Edge switches are numbered first (they carry the endpoints), then
// aggregation switches, then cores; see level()/pod().

#include "topo/topology.hpp"

namespace slimfly {

enum class FatTreeVariant { Classic, PaperSlim };

class FatTree3 : public Topology {
 public:
  /// p = k/2 = endpoints per edge switch = up-links per switch.
  explicit FatTree3(int p, FatTreeVariant variant = FatTreeVariant::PaperSlim);

  std::string name() const override;
  std::string symbol() const override { return "FT-3"; }

  int p() const { return p_; }
  int pods() const { return pods_; }
  FatTreeVariant variant() const { return variant_; }

  static constexpr int kDiameter = 4;  // edge-agg-core-agg-edge hops

  /// 0 = edge, 1 = aggregation, 2 = core.
  int level(int r) const;
  /// Pod index for edge/agg switches; -1 for cores.
  int pod(int r) const;
  /// Position of switch r inside its level (and pod, for levels 0/1).
  int index_in_level(int r) const;

 private:
  static Graph build(int p, int pods);
  int p_;
  int pods_;
  FatTreeVariant variant_;
};

}  // namespace slimfly
