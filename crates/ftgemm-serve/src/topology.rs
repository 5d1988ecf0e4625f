//! Memory-domain topology: how many nodes the service shards itself into,
//! and how many cores each one counts.
//!
//! The service keys its queue shard groups, dispatchers, per-node pools and
//! placement off a [`Topology`] rather than probing the machine directly.
//! That indirection is deliberate: production builds call
//! [`Topology::detect`] once, while tests build any shape they want with
//! [`Topology::synthetic`] and get **deterministic** placement — no sysfs,
//! no wall clock, no machine dependence in any decision path.
//!
//! A topology is scheduling structure only: it sizes each node's pool, but
//! no thread is pinned to a node's CPUs and no page is bound to its memory.

/// The machine's memory-domain layout, as the service sees it: one core
/// count per node, nodes numbered densely from `0`.
///
/// Construction:
/// * [`Topology::detect`] — Linux sysfs (`/sys/devices/system/node`), with
///   a single-node fallback everywhere else;
/// * [`Topology::synthetic`] — an arbitrary `nodes x cores_per_node` shape,
///   for tests and forced layouts;
/// * [`Topology::from_core_counts`] — explicit, possibly uneven, per-node
///   core counts;
/// * [`Topology::single`] — the explicit UMA case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Cores per node (every entry `>= 1`; sparse sysfs node ids are
    /// re-densified so they never leak into scheduling math).
    cores: Vec<usize>,
}

impl Topology {
    /// Topology of the running machine: parsed from
    /// `/sys/devices/system/node/node*/cpulist` on Linux, one node holding
    /// every available core anywhere that fails (non-Linux, masked sysfs,
    /// containers).
    pub fn detect() -> Self {
        detect_linux().unwrap_or_else(|| Self::single(available_cores()))
    }

    /// A synthetic `nodes x cores_per_node` topology for tests and forced
    /// layouts. Panics if either dimension is zero.
    pub fn synthetic(nodes: usize, cores_per_node: usize) -> Self {
        assert!(nodes >= 1, "topology needs at least one node");
        Self::from_core_counts(&vec![cores_per_node; nodes])
    }

    /// A single-domain (UMA) topology with `cores` cores.
    pub fn single(cores: usize) -> Self {
        Self::synthetic(1, cores.max(1))
    }

    /// Topology from explicit per-node core counts, node `i` holding
    /// `cores[i]`. Zero-core entries are rejected.
    pub fn from_core_counts(cores: &[usize]) -> Self {
        assert!(!cores.is_empty(), "topology needs at least one node");
        assert!(
            cores.iter().all(|&c| c >= 1),
            "nodes need at least one core"
        );
        Topology {
            cores: cores.to_vec(),
        }
    }

    /// Number of memory domains.
    pub fn num_nodes(&self) -> usize {
        self.cores.len()
    }

    /// Total cores across all nodes.
    pub fn total_cores(&self) -> usize {
        self.cores.iter().sum()
    }

    /// How a total of `threads` pool threads splits across the nodes, one
    /// count per node: each node's cores at `threads == 0`, otherwise a
    /// split by core share (cumulative rounding, so a 6+2-core topology
    /// gets a 3:1 ratio, not an even one) with a floor of one thread per
    /// node — every node must be able to execute its own shard group, so
    /// the counts sum to more than `threads` when some node's share rounds
    /// to zero.
    pub fn threads_per_node(&self, threads: usize) -> Vec<usize> {
        if threads == 0 {
            return self.cores.clone();
        }
        let total = self.total_cores();
        let (mut cum_cores, mut start) = (0usize, 0usize);
        self.cores
            .iter()
            .map(|&cores| {
                cum_cores += cores;
                // The last node's `cum_cores == total`, so its end is
                // exactly `threads`: the ends cover `0..threads`.
                let end = ((threads * cum_cores + total / 2) / total).clamp(start, threads);
                let share = end - start;
                start = end;
                share.max(1)
            })
            .collect()
    }
}

/// Cores reported by the OS, `1` when unknown.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses `/sys/devices/system/node`. `None` when the hierarchy is missing,
/// unreadable, or degenerate — callers fall back to a single node.
fn detect_linux() -> Option<Topology> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let dir = std::fs::read_dir("/sys/devices/system/node").ok()?;
    let mut found: Vec<(usize, usize)> = Vec::new();
    for entry in dir.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(idx) = name
            .strip_prefix("node")
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        let cpulist = std::fs::read_to_string(entry.path().join("cpulist")).ok()?;
        let cores = parse_cpulist(cpulist.trim());
        if cores > 0 {
            found.push((idx, cores));
        }
    }
    if found.is_empty() {
        return None;
    }
    found.sort_unstable_by_key(|&(idx, _)| idx);
    Some(Topology::from_core_counts(
        &found.iter().map(|&(_, cores)| cores).collect::<Vec<_>>(),
    ))
}

/// Counts CPUs in a kernel cpulist string (`"0-3,8,10-11"` → 7). Malformed
/// chunks count zero rather than failing the whole detection.
fn parse_cpulist(list: &str) -> usize {
    list.split(',')
        .filter(|chunk| !chunk.trim().is_empty())
        .map(|chunk| {
            let chunk = chunk.trim();
            match chunk.split_once('-') {
                Some((lo, hi)) => match (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                    (Ok(lo), Ok(hi)) if hi >= lo => hi - lo + 1,
                    _ => 0,
                },
                None => usize::from(chunk.parse::<usize>().is_ok()),
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_shape() {
        let t = Topology::synthetic(4, 2);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.total_cores(), 8);
        assert_eq!(t.threads_per_node(0), [2, 2, 2, 2]);
    }

    #[test]
    fn single_is_one_node() {
        let t = Topology::single(6);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.total_cores(), 6);
        assert!(Topology::single(0).total_cores() >= 1);
    }

    #[test]
    fn detect_never_panics_and_is_sane() {
        let t = Topology::detect();
        assert!(t.num_nodes() >= 1);
        assert!(t.total_cores() >= 1);
        let cores = t.threads_per_node(0);
        assert_eq!(cores.len(), t.num_nodes());
        assert!(cores.iter().all(|&c| c >= 1));
    }

    #[test]
    fn from_core_counts_uneven() {
        let t = Topology::from_core_counts(&[3, 1, 2]);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.total_cores(), 6);
        assert_eq!(t.threads_per_node(0), [3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_node_rejected() {
        let _ = Topology::from_core_counts(&[2, 0]);
    }

    #[test]
    fn cpulist_parsing() {
        assert_eq!(parse_cpulist("0-3,8,10-11"), 7);
        assert_eq!(parse_cpulist("0"), 1);
        assert_eq!(parse_cpulist(""), 0);
        assert_eq!(parse_cpulist("junk"), 0);
        assert_eq!(parse_cpulist("4-2"), 0, "inverted range ignored");
    }

    #[test]
    fn threads_per_node_exact_when_threads_match_cores() {
        let t = Topology::synthetic(2, 3);
        assert_eq!(t.threads_per_node(6), [3, 3]);
    }

    #[test]
    fn threads_per_node_proportional_to_core_share() {
        let t = Topology::from_core_counts(&[6, 2]);
        assert_eq!(t.threads_per_node(4), [3, 1]);
    }

    #[test]
    fn threads_per_node_covers_with_a_floor_of_one() {
        for (nodes, cores, threads, expected) in [
            (1, 4, 4, vec![4]),
            (3, 2, 7, vec![2, 3, 2]),
            (4, 1, 2, vec![1, 1, 1, 1]),
            (2, 8, 1, vec![1, 1]),
            (5, 3, 0, vec![3; 5]),
        ] {
            let split = Topology::synthetic(nodes, cores).threads_per_node(threads);
            assert_eq!(split, expected, "{nodes}x{cores}, {threads} threads");
            assert!(split.iter().all(|&n| n >= 1), "every node keeps a thread");
            if threads >= nodes {
                assert_eq!(split.iter().sum::<usize>(), threads, "covers exactly");
            }
        }
    }
}
