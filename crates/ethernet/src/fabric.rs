//! Switch fabrics: cascaded multi-switch networks as a station-indexed view.
//!
//! The paper's reference architecture is a single switch, but its target —
//! a next-generation avionics backbone — is a *cascade* of switches: one
//! switch per zone, connected by full-duplex trunk links.  A [`Fabric`]
//! describes such a network from the point of view of the workload: which
//! switch each station attaches to, which switch pairs are trunked, and the
//! (unique, minimum-hop) switch path every source/destination pair uses.
//!
//! The same `Fabric` value drives both sides of the validation loop:
//!
//! * the **analysis** (`rtswitch_core::analyze_multi_hop`) walks each flow's
//!   port sequence and propagates arrival curves hop by hop;
//! * the **simulator** (`netsim::Simulator::with_fabric`) forwards frames
//!   across the cascaded switches using the same next-hop tables.

use core::fmt;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Errors raised while building a [`Fabric`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A station or trunk references a switch index that does not exist.
    UnknownSwitch(usize),
    /// A trunk connects a switch to itself.
    SelfTrunk(usize),
    /// The same pair of switches is trunked twice.
    DuplicateTrunk(usize, usize),
    /// The switch graph is not connected: some station pairs have no route.
    Disconnected {
        /// A switch unreachable from switch 0.
        unreachable: usize,
    },
    /// The trunk graph contains a cycle: fabrics are switch *trees* (a
    /// connected graph on `n` switches must have exactly `n − 1` trunks).
    /// Trees keep routes unique and the per-hop analysis well-ordered.
    CyclicTrunks {
        /// Number of trunks supplied.
        trunks: usize,
        /// Number of switches in the fabric.
        switches: usize,
    },
    /// The fabric has no switches at all.
    NoSwitches,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownSwitch(s) => write!(f, "unknown switch index {s}"),
            FabricError::SelfTrunk(s) => write!(f, "switch {s} cannot be trunked to itself"),
            FabricError::DuplicateTrunk(a, b) => {
                write!(f, "switches {a} and {b} are trunked twice")
            }
            FabricError::Disconnected { unreachable } => {
                write!(f, "switch {unreachable} is unreachable from switch 0")
            }
            FabricError::CyclicTrunks { trunks, switches } => write!(
                f,
                "{trunks} trunks on {switches} switches form a cycle; fabrics must be trees"
            ),
            FabricError::NoSwitches => write!(f, "a fabric needs at least one switch"),
        }
    }
}

impl std::error::Error for FabricError {}

/// A cascaded-switch network: station attachments, trunk links, and
/// precomputed minimum-hop next-hop routing between switches.
///
/// Stations are identified by their index (aligned with the workload's
/// `StationId` ordering); switches by a dense index `0..switch_count`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fabric {
    /// Number of switches in the fabric.
    switch_count: usize,
    /// For each station (by index), the switch it attaches to.
    station_switch: Vec<usize>,
    /// Undirected trunk links between switches.
    trunks: Vec<(usize, usize)>,
    /// `next_hop[s][d]`: the neighbouring switch on the minimum-hop path
    /// from switch `s` towards switch `d` (`s` itself when `s == d`).
    next_hop: Vec<Vec<usize>>,
}

impl Fabric {
    /// Builds a fabric from explicit station attachments and trunk links,
    /// validating indices, connectivity and tree-ness (the trunk graph
    /// must be a spanning tree, so routes are unique) and precomputing the
    /// next-hop tables.
    pub fn new(
        switch_count: usize,
        station_switch: Vec<usize>,
        trunks: Vec<(usize, usize)>,
    ) -> Result<Self, FabricError> {
        if switch_count == 0 {
            return Err(FabricError::NoSwitches);
        }
        for &s in &station_switch {
            if s >= switch_count {
                return Err(FabricError::UnknownSwitch(s));
            }
        }
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); switch_count];
        for &(a, b) in &trunks {
            if a >= switch_count {
                return Err(FabricError::UnknownSwitch(a));
            }
            if b >= switch_count {
                return Err(FabricError::UnknownSwitch(b));
            }
            if a == b {
                return Err(FabricError::SelfTrunk(a));
            }
            if adjacency[a].contains(&b) {
                return Err(FabricError::DuplicateTrunk(a, b));
            }
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        // A connected graph on `n` nodes with no self-loops or duplicate
        // edges is a tree iff it has exactly `n − 1` edges; more means a
        // cycle (routes would stop being unique and the analysis's port
        // ordering would stop being well-defined), fewer means disconnected
        // (also caught positively by the BFS below).
        if trunks.len() + 1 > switch_count {
            return Err(FabricError::CyclicTrunks {
                trunks: trunks.len(),
                switches: switch_count,
            });
        }
        // BFS from every switch fills the next-hop table; BFS order over the
        // insertion-ordered adjacency keeps routing deterministic.
        let mut next_hop = vec![vec![usize::MAX; switch_count]; switch_count];
        for (src, row) in next_hop.iter_mut().enumerate() {
            row[src] = src;
            let mut predecessor = vec![usize::MAX; switch_count];
            predecessor[src] = src;
            let mut queue = VecDeque::from([src]);
            while let Some(current) = queue.pop_front() {
                for &next in &adjacency[current] {
                    if predecessor[next] == usize::MAX {
                        predecessor[next] = current;
                        queue.push_back(next);
                    }
                }
            }
            for dst in 0..switch_count {
                if predecessor[dst] == usize::MAX {
                    return Err(FabricError::Disconnected { unreachable: dst });
                }
                if dst == src {
                    continue;
                }
                // Walk back from dst to the neighbour of src.
                let mut node = dst;
                while predecessor[node] != src {
                    node = predecessor[node];
                }
                row[dst] = node;
            }
        }
        Ok(Fabric {
            switch_count,
            station_switch,
            trunks,
            next_hop,
        })
    }

    /// The paper's reference architecture: one switch, every station on it.
    pub fn single_switch(stations: usize) -> Self {
        Fabric::new(1, vec![0; stations], Vec::new()).expect("a single switch is always valid")
    }

    /// A daisy-chained line of `switches`, stations attached round-robin:
    /// station `i` on switch `i % switches`.
    pub fn line(switches: usize, stations: usize) -> Self {
        let switches = switches.max(1);
        let station_switch = (0..stations).map(|i| i % switches).collect();
        let trunks = (1..switches).map(|s| (s - 1, s)).collect();
        Fabric::new(switches, station_switch, trunks).expect("a line of switches is always valid")
    }

    /// A star-of-stars: one core switch (index 0) trunked to `leaves` leaf
    /// switches, stations attached round-robin over the leaves (the core
    /// only aggregates).  With zero leaves this degenerates to a single
    /// switch.
    pub fn star_of_stars(leaves: usize, stations: usize) -> Self {
        if leaves == 0 {
            return Fabric::single_switch(stations);
        }
        let station_switch = (0..stations).map(|i| 1 + (i % leaves)).collect();
        let trunks = (1..=leaves).map(|leaf| (0, leaf)).collect();
        Fabric::new(leaves + 1, station_switch, trunks).expect("a star of stars is always valid")
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switch_count
    }

    /// Number of stations.
    pub fn station_count(&self) -> usize {
        self.station_switch.len()
    }

    /// `true` when the fabric is the paper's single-switch architecture.
    pub fn is_single_switch(&self) -> bool {
        self.switch_count == 1
    }

    /// The switch a station attaches to.
    pub fn switch_of(&self, station: usize) -> usize {
        self.station_switch[station]
    }

    /// The undirected trunk links.
    pub fn trunks(&self) -> &[(usize, usize)] {
        &self.trunks
    }

    /// The neighbouring switch on the minimum-hop path from `from` towards
    /// `to` (`from` itself when the two coincide).
    pub fn next_hop(&self, from: usize, to: usize) -> usize {
        self.next_hop[from][to]
    }

    /// The ordered switches a frame from `src_station` to `dst_station`
    /// traverses (at least one: the source station's switch).
    pub fn switch_path(&self, src_station: usize, dst_station: usize) -> Vec<usize> {
        let mut path = vec![self.switch_of(src_station)];
        let dst_switch = self.switch_of(dst_station);
        let mut current = self.switch_of(src_station);
        while current != dst_switch {
            current = self.next_hop(current, dst_switch);
            path.push(current);
        }
        path
    }

    /// The number of links a frame from `src_station` to `dst_station`
    /// traverses: the source uplink, one trunk per switch-to-switch step,
    /// and the final delivery link.
    pub fn link_count(&self, src_station: usize, dst_station: usize) -> usize {
        self.switch_path(src_station, dst_station).len() + 1
    }

    /// The largest [`Fabric::link_count`] over all distinct station pairs
    /// (0 for fabrics with fewer than two stations).
    pub fn diameter_links(&self) -> usize {
        let n = self.station_count();
        let mut worst = 0;
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    worst = worst.max(self.link_count(src, dst));
                }
            }
        }
        worst
    }

    /// The fabric after trunk `failed` (an index into [`Fabric::trunks`])
    /// has gone down and the `backup` link has been brought up in its
    /// place.  The replacement must reconnect the two components the
    /// failure splits the tree into, so the result is validated through
    /// [`Fabric::new`] — an ill-chosen backup surfaces as the usual
    /// [`FabricError`] rather than a silently partitioned network.
    pub fn with_failover(
        &self,
        failed: usize,
        backup: (usize, usize),
    ) -> Result<Fabric, FabricError> {
        if failed >= self.trunks.len() {
            return Err(FabricError::UnknownSwitch(failed));
        }
        let mut trunks = self.trunks.clone();
        trunks[failed] = backup;
        Fabric::new(self.switch_count, self.station_switch.clone(), trunks)
    }

    /// A deterministic backup link for trunk `failed`: the lexicographically
    /// smallest switch of the component containing the failed trunk's lower
    /// endpoint, paired with the largest switch of the other component.
    /// When that candidate *is* the failed pair itself (adjacent leaves of
    /// the tree), the backup degenerates to a parallel standby link on the
    /// same switch pair.  Returns `None` for out-of-range trunk indices.
    pub fn backup_for(&self, failed: usize) -> Option<(usize, usize)> {
        let &(fa, fb) = self.trunks.get(failed)?;
        // BFS the component containing `fa` in the tree minus the failed
        // trunk; everything else is the component containing `fb`.
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); self.switch_count];
        for (i, &(a, b)) in self.trunks.iter().enumerate() {
            if i == failed {
                continue;
            }
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        let mut in_a = vec![false; self.switch_count];
        in_a[fa] = true;
        let mut queue = VecDeque::from([fa]);
        while let Some(current) = queue.pop_front() {
            for &next in &adjacency[current] {
                if !in_a[next] {
                    in_a[next] = true;
                    queue.push_back(next);
                }
            }
        }
        let low_a = (0..self.switch_count).find(|&s| in_a[s])?;
        let high_a = (0..self.switch_count).rev().find(|&s| in_a[s])?;
        let high_b = (0..self.switch_count).rev().find(|&s| !in_a[s])?;
        let failed_pair = (fa.min(fb), fa.max(fb));
        for (x, y) in [(low_a, high_b), (high_a, high_b)] {
            let candidate = (x.min(y), x.max(y));
            if candidate != failed_pair {
                return Some(candidate);
            }
        }
        // Both components are single attachment points (e.g. a two-switch
        // fabric): fall back to a parallel standby link on the same pair.
        Some(failed_pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The switch path from `src`'s switch to `dst`'s, found by a
    /// breadth-first search over [`Fabric::trunks`] that shares nothing
    /// with the fabric's next-hop tables.
    fn searched_switch_path(fabric: &Fabric, src: usize, dst: usize) -> Vec<usize> {
        let (from, to) = (fabric.switch_of(src), fabric.switch_of(dst));
        let mut parent = vec![None; fabric.switch_count()];
        parent[from] = Some(from);
        let mut queue = VecDeque::from([from]);
        while let Some(current) = queue.pop_front() {
            for &(a, b) in fabric.trunks() {
                let next = if current == a {
                    b
                } else if current == b {
                    a
                } else {
                    continue;
                };
                if parent[next].is_none() {
                    parent[next] = Some(current);
                    queue.push_back(next);
                }
            }
        }
        let mut path = vec![to];
        let mut node = to;
        while node != from {
            node = parent[node].expect("fabrics are connected");
            path.push(node);
        }
        path.reverse();
        path
    }

    #[test]
    fn single_switch_fabric() {
        let f = Fabric::single_switch(5);
        assert!(f.is_single_switch());
        assert_eq!(f.switch_count(), 1);
        assert_eq!(f.station_count(), 5);
        assert_eq!(f.switch_path(0, 4), vec![0]);
        assert_eq!(f.link_count(0, 4), 2);
        assert_eq!(f.diameter_links(), 2);
    }

    #[test]
    fn line_fabric_routes_along_the_chain() {
        // 3 switches: stations 0,3 on sw0; 1,4 on sw1; 2,5 on sw2.
        let f = Fabric::line(3, 6);
        assert_eq!(f.switch_count(), 3);
        assert_eq!(f.switch_of(0), 0);
        assert_eq!(f.switch_of(5), 2);
        assert_eq!(f.switch_path(0, 5), vec![0, 1, 2]);
        assert_eq!(f.switch_path(5, 0), vec![2, 1, 0]);
        assert_eq!(f.switch_path(0, 3), vec![0]);
        assert_eq!(f.link_count(0, 5), 4);
        assert_eq!(f.diameter_links(), 4);
        assert_eq!(f.trunks(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn star_of_stars_routes_through_the_core() {
        // Core sw0, leaves sw1/sw2; stations alternate between the leaves.
        let f = Fabric::star_of_stars(2, 4);
        assert_eq!(f.switch_count(), 3);
        assert_eq!(f.switch_of(0), 1);
        assert_eq!(f.switch_of(1), 2);
        assert_eq!(f.switch_path(0, 1), vec![1, 0, 2]);
        assert_eq!(f.switch_path(0, 2), vec![1]);
        assert_eq!(f.link_count(0, 1), 4);
        // Zero leaves degenerates to a single switch.
        assert!(Fabric::star_of_stars(0, 4).is_single_switch());
    }

    #[test]
    fn invalid_fabrics_are_rejected() {
        assert_eq!(Fabric::new(0, vec![], vec![]), Err(FabricError::NoSwitches));
        assert_eq!(
            Fabric::new(2, vec![5], vec![(0, 1)]),
            Err(FabricError::UnknownSwitch(5))
        );
        assert_eq!(
            Fabric::new(2, vec![0], vec![(0, 3)]),
            Err(FabricError::UnknownSwitch(3))
        );
        assert_eq!(
            Fabric::new(2, vec![0], vec![(1, 1)]),
            Err(FabricError::SelfTrunk(1))
        );
        assert_eq!(
            Fabric::new(2, vec![0], vec![(0, 1), (1, 0)]),
            Err(FabricError::DuplicateTrunk(1, 0))
        );
        assert_eq!(
            Fabric::new(2, vec![0], vec![]),
            Err(FabricError::Disconnected { unreachable: 1 })
        );
        // A ring is connected but cyclic: routes would not be unique.
        assert_eq!(
            Fabric::new(3, vec![0, 1, 2], vec![(0, 1), (1, 2), (2, 0)]),
            Err(FabricError::CyclicTrunks {
                trunks: 3,
                switches: 3
            })
        );
        assert!(Fabric::new(2, vec![0, 1], vec![(0, 1)]).is_ok());
    }

    #[test]
    fn routes_match_a_breadth_first_search_over_the_trunks() {
        let line = Fabric::line(3, 6);
        let failover = line
            .with_failover(0, line.backup_for(0).expect("trunk 0 exists"))
            .expect("backup reconnects");
        for fabric in [
            Fabric::single_switch(4),
            line,
            Fabric::star_of_stars(3, 7),
            failover,
        ] {
            for src in 0..fabric.station_count() {
                for dst in 0..fabric.station_count() {
                    let expected = searched_switch_path(&fabric, src, dst);
                    // Uplink, one trunk per switch-to-switch step, delivery.
                    assert_eq!(fabric.link_count(src, dst), expected.len() + 1);
                    assert_eq!(fabric.switch_path(src, dst), expected);
                }
            }
        }
    }

    #[test]
    fn next_hop_is_consistent_with_paths() {
        let f = Fabric::line(4, 4);
        assert_eq!(f.next_hop(0, 3), 1);
        assert_eq!(f.next_hop(1, 3), 2);
        assert_eq!(f.next_hop(3, 0), 2);
        assert_eq!(f.next_hop(2, 2), 2);
    }

    #[test]
    fn failover_reroutes_onto_the_backup() {
        // Line of 3: failing (0,1) must reconnect sw0 via the (0,2) backup.
        let f = Fabric::line(3, 6);
        let backup = f.backup_for(0).expect("trunk 0 exists");
        assert_eq!(backup, (0, 2));
        let degraded = f.with_failover(0, backup).expect("backup reconnects");
        assert_eq!(degraded.trunks(), &[(0, 2), (1, 2)]);
        // Station 0 (sw0) to station 1 (sw1) now detours through sw2.
        assert_eq!(degraded.switch_path(0, 1), vec![0, 2, 1]);
        assert_eq!(f.switch_path(0, 1), vec![0, 1]);
        // Attachments are unchanged.
        assert_eq!(degraded.switch_of(0), f.switch_of(0));
        assert_eq!(degraded.station_count(), f.station_count());
    }

    #[test]
    fn backup_for_prefers_a_genuine_reroute() {
        // Star: failing (0,1) should bridge leaf 1 to leaf 2, not
        // re-create the failed core link.
        let f = Fabric::star_of_stars(2, 4);
        assert_eq!(f.backup_for(0), Some((1, 2)));
        let degraded = f.with_failover(0, (1, 2)).expect("leaves bridge");
        assert_eq!(degraded.switch_path(0, 1), vec![1, 2]);
    }

    #[test]
    fn backup_degenerates_to_a_parallel_link_on_two_switches() {
        let f = Fabric::line(2, 4);
        assert_eq!(f.backup_for(0), Some((0, 1)));
        let degraded = f.with_failover(0, (0, 1)).expect("parallel standby");
        assert_eq!(degraded, f);
    }

    #[test]
    fn invalid_failovers_are_rejected() {
        let f = Fabric::line(3, 6);
        // Out-of-range trunk index.
        assert!(f.backup_for(7).is_none());
        assert!(f.with_failover(7, (0, 2)).is_err());
        // A backup that fails to reconnect the cut partitions the fabric.
        assert_eq!(
            f.with_failover(0, (1, 2)),
            Err(FabricError::DuplicateTrunk(1, 2))
        );
        // Single-switch fabrics have no trunks to fail.
        assert!(Fabric::single_switch(4).backup_for(0).is_none());
    }

    #[test]
    fn fabric_error_display() {
        assert!(FabricError::UnknownSwitch(3).to_string().contains("3"));
        assert!(FabricError::Disconnected { unreachable: 1 }
            .to_string()
            .contains("unreachable"));
    }
}
