//! Fair-share lease scheduling across concurrent campaigns.
//!
//! The service coordinator (see [`crate::service`]) multiplexes many
//! tenant campaigns over one worker fleet. When a worker asks for work,
//! something has to decide *whose* faults it runs next. [`FairScheduler`]
//! makes that call with three ingredients, checked in order:
//!
//! 1. **Priority tiers** — a campaign with a strictly higher priority
//!    starves lower tiers (that is what priority means here); ties fall
//!    through to weighted selection. Priorities are also honored on
//!    requeue: work reclaimed from an expired lease re-enters its
//!    campaign's queue, not a global one, so a high-priority tenant's
//!    retry never waits behind a low-priority tenant's fresh work.
//! 2. **Per-campaign quotas** — an upper bound on a campaign's
//!    concurrently leased runs. A tenant with a huge backlog cannot
//!    monopolize the fleet; once its in-flight count hits its quota it is
//!    ineligible until batches complete (or leases expire).
//! 3. **Smooth weighted round-robin** — among eligible same-priority
//!    campaigns, selection follows the classic smooth-WRR credit walk
//!    (the algorithm behind nginx's upstream balancing): every eligible
//!    campaign's credit grows by its weight, the largest credit wins and
//!    pays back the total weight in play. Over `N` picks a campaign with
//!    weight `w` receives `N·w/Σw` leases, and consecutive picks
//!    interleave instead of bursting.
//!
//! The scheduler is deliberately pure bookkeeping — no sockets, no time,
//! no randomness — so its fairness properties are provable in unit tests
//! and identical across runs. Determinism here is not cosmetic: scheduling
//! order decides nothing about campaign *results* (every run is
//! deterministic and order-independent), but a reproducible scheduler
//! makes service-level incidents replayable.

use std::collections::BTreeMap;

/// Scheduling knobs one campaign submits with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareConfig {
    /// Priority tier (higher = served first; default 0).
    pub priority: u32,
    /// Weight within the tier for smooth WRR (≥ 1; default 1).
    pub weight: u32,
    /// Max concurrently leased runs, `0` = unlimited (default).
    pub quota: usize,
}

impl Default for ShareConfig {
    fn default() -> Self {
        ShareConfig {
            priority: 0,
            weight: 1,
            quota: 0,
        }
    }
}

#[derive(Debug)]
struct Entry {
    share: ShareConfig,
    /// Runs waiting to be leased.
    queued: usize,
    /// Runs currently out on leases.
    outstanding: usize,
    /// Smooth-WRR credit (only meaningful relative to same-tier peers).
    credit: i64,
}

impl Entry {
    fn eligible(&self) -> bool {
        self.queued > 0 && (self.share.quota == 0 || self.outstanding < self.share.quota)
    }
}

/// The service's fair-share lease scheduler (see the module docs).
///
/// Campaign ids map to share entries; the owner reports queue/outstanding
/// transitions ([`enqueued`](Self::enqueued), [`leased`](Self::leased),
/// [`completed`](Self::completed), [`requeued`](Self::requeued)) and asks
/// [`pick`](Self::pick) which campaign the next lease should come from.
#[derive(Debug, Default)]
pub struct FairScheduler {
    // BTreeMap: deterministic iteration order makes ties reproducible.
    entries: BTreeMap<u64, Entry>,
}

impl FairScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a campaign with `queued` runnable runs. Re-registering an
    /// id replaces its share config but keeps nothing else (the caller
    /// re-reports queue depth).
    pub fn register(&mut self, campaign: u64, share: ShareConfig, queued: usize) {
        let share = ShareConfig {
            weight: share.weight.max(1),
            ..share
        };
        self.entries.insert(
            campaign,
            Entry {
                share,
                queued,
                outstanding: 0,
                credit: 0,
            },
        );
    }

    /// Removes a completed (or cancelled) campaign.
    pub fn deregister(&mut self, campaign: u64) {
        self.entries.remove(&campaign);
    }

    /// Whether `campaign` is currently registered.
    pub fn contains(&self, campaign: u64) -> bool {
        self.entries.contains_key(&campaign)
    }

    fn entry(&mut self, campaign: u64) -> &mut Entry {
        self.entries
            .get_mut(&campaign)
            .expect("campaign not registered with scheduler")
    }

    /// `n` more runs became queueable (fresh submission growth).
    pub fn enqueued(&mut self, campaign: u64, n: usize) {
        self.entry(campaign).queued += n;
    }

    /// `n` queued runs went out on a lease.
    pub fn leased(&mut self, campaign: u64, n: usize) {
        let e = self.entry(campaign);
        e.queued = e.queued.saturating_sub(n);
        e.outstanding += n;
    }

    /// `n` leased runs completed (their batch was accepted).
    pub fn completed(&mut self, campaign: u64, n: usize) {
        let e = self.entry(campaign);
        e.outstanding = e.outstanding.saturating_sub(n);
    }

    /// `n` leased runs were reclaimed (lease expired or its session died)
    /// and are queued again. Because the runs re-enter their own
    /// campaign's queue, the campaign's priority keeps protecting them.
    pub fn requeued(&mut self, campaign: u64, n: usize) {
        let e = self.entry(campaign);
        e.outstanding = e.outstanding.saturating_sub(n);
        e.queued += n;
    }

    /// Queued runs for `campaign` (0 when unregistered).
    pub fn queued(&mut self, campaign: u64) -> usize {
        self.entries.get(&campaign).map_or(0, |e| e.queued)
    }

    /// Picks the campaign the next lease should draw from, or `None` when
    /// no registered campaign is eligible (everything drained, or every
    /// backlogged campaign is at quota).
    ///
    /// `filter` restricts candidates. The service always passes `None`; the
    /// argument stays only because `benchmark/` calls `pick(None)`, until
    /// ROADMAP item 8a moves it off.
    pub fn pick(&mut self, filter: Option<&dyn Fn(u64) -> bool>) -> Option<u64> {
        let allowed = |id: u64| filter.is_none_or(|f| f(id));
        let top = self
            .entries
            .iter()
            .filter(|(id, e)| e.eligible() && allowed(**id))
            .map(|(_, e)| e.share.priority)
            .max()?;
        // Smooth WRR within the winning tier: everyone earns their weight,
        // the richest takes the lease and pays back the tier's total.
        let candidates: Vec<u64> = self
            .entries
            .iter()
            .filter(|(id, e)| e.eligible() && allowed(**id) && e.share.priority == top)
            .map(|(id, _)| *id)
            .collect();
        let mut total: i64 = 0;
        for &id in &candidates {
            let e = self.entries.get_mut(&id).expect("candidate exists");
            e.credit += i64::from(e.share.weight);
            total += i64::from(e.share.weight);
        }
        let winner = candidates
            .iter()
            .copied()
            .max_by_key(|&id| (self.entries[&id].credit, std::cmp::Reverse(id)))
            .expect("candidates is non-empty");
        self.entries.get_mut(&winner).expect("winner exists").credit -= total;
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(picks: &[u64]) -> BTreeMap<u64, usize> {
        let mut m = BTreeMap::new();
        for &p in picks {
            *m.entry(p).or_insert(0) += 1;
        }
        m
    }

    fn drive(s: &mut FairScheduler, rounds: usize) -> Vec<u64> {
        // Lease one run per pick and complete it immediately, so quotas
        // never bind and the weight walk is observable in isolation.
        (0..rounds)
            .filter_map(|_| {
                let id = s.pick(None)?;
                s.leased(id, 1);
                s.completed(id, 1);
                Some(id)
            })
            .collect()
    }

    #[test]
    fn weights_split_leases_proportionally_and_interleave() {
        let mut s = FairScheduler::new();
        s.register(
            1,
            ShareConfig {
                weight: 3,
                ..Default::default()
            },
            1000,
        );
        s.register(
            2,
            ShareConfig {
                weight: 1,
                ..Default::default()
            },
            1000,
        );
        let picks = drive(&mut s, 400);
        let c = counts(&picks);
        assert_eq!(c[&1], 300, "weight 3 of 4 → 3/4 of the leases");
        assert_eq!(c[&2], 100);
        // Smooth WRR interleaves: campaign 2 never waits more than the
        // full cycle length (4) between leases.
        let gaps: Vec<usize> = picks
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == 2)
            .map(|(i, _)| i)
            .collect();
        for w in gaps.windows(2) {
            assert!(w[1] - w[0] <= 4, "weight-1 tenant starved for {:?}", w);
        }
    }

    #[test]
    fn equal_weights_alternate_deterministically() {
        let mut s = FairScheduler::new();
        s.register(10, ShareConfig::default(), 100);
        s.register(20, ShareConfig::default(), 100);
        let picks = drive(&mut s, 6);
        // Ties break toward the lower id, then strict alternation.
        assert_eq!(picks, vec![10, 20, 10, 20, 10, 20]);
    }

    #[test]
    fn higher_priority_tier_starves_lower() {
        let mut s = FairScheduler::new();
        s.register(
            1,
            ShareConfig {
                priority: 5,
                ..Default::default()
            },
            3,
        );
        s.register(2, ShareConfig::default(), 100);
        let picks = drive(&mut s, 6);
        assert_eq!(
            picks,
            vec![1, 1, 1, 2, 2, 2],
            "tier 5 drains fully before tier 0 sees a lease"
        );
    }

    #[test]
    fn quota_caps_outstanding_leases() {
        let mut s = FairScheduler::new();
        s.register(
            1,
            ShareConfig {
                quota: 2,
                ..Default::default()
            },
            100,
        );
        s.register(2, ShareConfig::default(), 100);
        // Lease without completing: campaign 1 hits its quota after 2.
        let mut got = Vec::new();
        for _ in 0..6 {
            let id = s.pick(None).unwrap();
            s.leased(id, 1);
            got.push(id);
        }
        assert_eq!(counts(&got)[&1], 2, "quota 2 binds");
        assert_eq!(counts(&got)[&2], 4);
        // Completing frees quota.
        s.completed(1, 1);
        assert!((0..3).any(|_| s.pick(None) == Some(1)));
    }

    #[test]
    fn requeue_respects_priority() {
        let mut s = FairScheduler::new();
        s.register(
            1,
            ShareConfig {
                priority: 9,
                ..Default::default()
            },
            1,
        );
        s.register(2, ShareConfig::default(), 10);
        assert_eq!(s.pick(None), Some(1));
        s.leased(1, 1);
        // Campaign 1's only work is out on a lease → tier 0 gets served.
        assert_eq!(s.pick(None), Some(2));
        // The lease expires; its work re-enters campaign 1's queue and
        // instantly outranks the backlog below it.
        s.requeued(1, 1);
        assert_eq!(s.pick(None), Some(1));
    }

    #[test]
    fn filter_restricts_candidates() {
        let mut s = FairScheduler::new();
        s.register(1, ShareConfig::default(), 10);
        s.register(
            2,
            ShareConfig {
                priority: 7,
                ..Default::default()
            },
            10,
        );
        // Unfiltered, the high tier wins; a filter sees only what it admits.
        assert_eq!(s.pick(None), Some(2));
        let only_one = |id: u64| id == 1;
        assert_eq!(s.pick(Some(&only_one)), Some(1));
        let nothing = |_: u64| false;
        assert_eq!(s.pick(Some(&nothing)), None);
    }

    #[test]
    fn drained_and_deregistered_campaigns_disappear() {
        let mut s = FairScheduler::new();
        s.register(1, ShareConfig::default(), 1);
        assert_eq!(s.pick(None), Some(1));
        s.leased(1, 1);
        assert_eq!(s.pick(None), None, "no queued work anywhere");
        s.completed(1, 1);
        s.deregister(1);
        assert!(!s.contains(1));
        assert_eq!(s.pick(None), None);
    }
}
