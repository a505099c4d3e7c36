#pragma once
// String-keyed topology registry: builds any topology in the evaluation from
// a declarative spec string, so experiments can be data instead of code.
//
// Spec grammar:  family[:key=value[,key=value...]]
//   "slimfly:q=19"            Slim Fly MMS, balanced concentration
//   "slimfly:q=19,p=18"       oversubscribed variant (Section V-E)
//   "dragonfly:p=7,a=14,h=7"  g defaults to a*h+1 (maximum palmtree size)
//   "dragonfly:a=7,p=7,h=7,g=50"
//   "fattree:k=22"            three-level fat tree (k == p, endpoints/edge
//                             switch); variant=classic|paperslim
//   "torus:dims=8x8x8"        k-ary n-D torus; optional c=<concentration>
//   "hypercube:n=10"          binary n-cube; optional c=<concentration>
//   "flatbutterfly:n=3,extent=8"  optional c (0 = balanced = extent)
//   "dln:n=50,k=7,p=4"        DLN random shortcuts: ring of n routers, k-2
//                             shortcuts each, p endpoints; optional seed=<u64>
//   "longhop:n=6,extra=2"     Long Hop Cayley graph over Z_2^n with `extra`
//                             code generators; optional p, seed
//   "augmented:q=19,extra=4"  Slim Fly MMS(q) plus `extra` random cables per
//                             router (Section VII-A); optional p, seed
//
// Randomized families (dln, longhop, augmented) default their seed, so a
// spec string always identifies one concrete instance; pass seed=<u64> for
// another draw. The grammar and its one-spelling rule (canonical digits, no
// duplicate or empty parameters) are util/spec.hpp's, shared with routing
// and traffic specs, so specs round-trip through `sweep --emit-config`.
//
// Unknown families and unknown or missing keys throw std::invalid_argument
// with a message naming the offending spec.

#include <memory>
#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace slimfly::topo {

/// Builds the topology a spec describes. Throws std::invalid_argument on an
/// unknown family, a malformed/unknown key, or parameters the topology
/// constructor rejects. One exception to the type: dln's randomized
/// matching throws std::runtime_error when a feasible-looking (n, k) pair
/// exhausts its retries (the message names n, k, and seed).
std::unique_ptr<Topology> make(const std::string& spec);

/// Reads a spec exactly as make() does, without constructing anything, and
/// returns its family: the family is registered, every required key is
/// present, no unknown keys appear, and every value is canonical. Lets
/// callers fail fast before a minutes-long paper-scale build; semantic
/// value errors (bad radix/degree pairs, non-prime-power q) still surface
/// at make(). Throws std::invalid_argument on violation.
std::string validate_spec(const std::string& spec);

/// True when `family` names a registered topology family.
bool is_registered(const std::string& family);

/// All registered family names, sorted.
std::vector<std::string> registry_names();

/// One small, valid example spec per registered family (test/help fodder).
std::vector<std::string> example_specs();

/// Registry family name for a constructed topology ("slimfly", "torus", ...),
/// or "" for types outside the registry.
std::string family_of(const Topology& topo);

}  // namespace slimfly::topo
