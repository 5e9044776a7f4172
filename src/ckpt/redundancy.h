// Checkpoint-redundancy policies (the SCR-style trade space).
//
// The paper's buddy scheme (§2.1) fully duplicates every verified image
// across replicas. That is one point on a redundancy-vs-memory curve:
//
//   Local    no remote copy at all. Zero extra memory and wire; any hard
//            failure loses the node's image, so recovery degrades to a
//            scratch restart. SDC rollback (which only needs the local
//            verified image) still works.
//   Partner  the existing buddy path: the cross-replica copy of §2.1,
//            1x extra memory (held by the buddy), image-sized recovery
//            transfer over the expensive inter-replica links.
//   Rs       Reed–Solomon parity across a group of N nodes of the SAME
//            replica (ckpt/rs.h): any m dead members of a group are
//            rebuilt from the survivors' images + parity, at ~m/(N-m) of
//            an image of extra memory per node. m = 1 is RAID-5 XOR
//            parity (--ckpt-scheme=xor is an alias for rs(1)).
//
// Local and partner are policies, not objects: the NodeAgent and the
// manager branch on AcrConfig::redundancy. Only rs holds state of its own
// (ckpt::RsScheme).
#pragma once

namespace acr::ckpt {

enum class Scheme { Local, Partner, Rs };

const char* scheme_name(Scheme s);

}  // namespace acr::ckpt
