//! Preprocessing glue: raw logs → one verdict per user agent → per-bot
//! tallies.
//!
//! Reproduces the study's §3.1 enrichment: standardize every user agent
//! against the known-bot corpus, attach the Dark-Visitors category, and
//! split the dataset into known-bot traffic and the anonymous remainder.
//!
//! Which known bot a user agent belongs to is decided once per symbol,
//! in the crate-private `AgentBots` table that every engine here reads.
//! [`tally_bots`] folds a whole log into per-bot counts in one
//! time-ordered pass; plain `analyze`, the §3 report, the honeypot and
//! the adaptation analyses all read it.

use std::collections::BTreeMap;

use botscope_useragent::{BotSpec, Standardizer};
use botscope_weblog::hash::FxHashMap;
use botscope_weblog::intern::{StringInterner, Sym};
use botscope_weblog::table::{LogTable, RecordRow};

use crate::metrics::{DirectiveCounts, PathClasses, TauAcc, CRAWL_DELAY_SECS};
use crate::spoofdetect::{dominance, SpoofReport};

/// One known bot's whole-log tally.
#[derive(Debug, Clone, Default)]
pub struct BotTally {
    /// Rows (Table 3 hits).
    pub records: u64,
    /// Bytes served (Table 3 volume).
    pub bytes: u64,
    /// Unix seconds of the bot's robots.txt fetches on any site, in
    /// nondecreasing order.
    pub robots_fetches: Vec<u64>,
    /// Per τ group (ASN, IP hash, raw user agent): its crawl-delay
    /// state and its trap-path hits.
    tau: FxHashMap<(Sym, u64, Sym), (TauAcc, u64)>,
}

impl BotTally {
    fn push(&mut self, row: &RecordRow, classes: &PathClasses) {
        let t = row.timestamp.unix();
        self.records += 1;
        self.bytes += row.bytes;
        if classes.is_robots(row.uri_path) {
            self.robots_fetches.push(t);
        }
        let (tau, traps) = self.tau.entry((row.asn, row.ip_hash, row.useragent)).or_default();
        tau.push(t, CRAWL_DELAY_SECS);
        *traps += u64::from(classes.is_trap(row.uri_path));
    }

    /// §4.2 crawl-delay compliance over the whole log at the paper's
    /// 30 s requirement, τ-stratified (see [`crate::metrics`]).
    pub fn crawl_delay(&self) -> DirectiveCounts {
        self.tau.values().map(|(tau, _)| tau.finish()).sum()
    }

    /// Rows that fetched a trap path.
    pub fn trap_hits(&self) -> u64 {
        self.tau.values().map(|&(_, traps)| traps).sum()
    }

    /// Per ASN: (rows, trap-path hits).
    pub(crate) fn per_asn(&self) -> FxHashMap<Sym, (u64, u64)> {
        let mut per_asn: FxHashMap<Sym, (u64, u64)> = FxHashMap::default();
        for (&(asn, _, _), (tau, traps)) in &self.tau {
            let (rows, hits) = per_asn.entry(asn).or_default();
            *rows += tau.accesses();
            *hits += traps;
        }
        per_asn
    }
}

/// Every known bot's [`BotTally`] over one table, from [`tally_bots`].
pub struct BotTallies<'t> {
    /// The table the tallies' symbols come from.
    pub(crate) table: &'t LogTable,
    /// The verdict of every user agent of the table.
    pub(crate) agents: AgentBots,
    /// Known bots with their tallies, in canonical-name order.
    pub bots: Vec<(&'static BotSpec, BotTally)>,
    /// Rows attributed to known bots.
    pub known_records: u64,
    /// Rows from agents that matched no known bot.
    pub anonymous_records: u64,
}

impl BotTallies<'_> {
    /// The tally of the bot with canonical name `bot`.
    pub fn get(&self, bot: &str) -> Option<&BotTally> {
        let i = self.bots.binary_search_by(|(spec, _)| spec.canonical.cmp(bot)).ok()?;
        Some(&self.bots[i].1)
    }

    /// The §5.2 dominance heuristic over every bot's per-ASN row counts
    /// (the paper uses [`crate::spoofdetect::DOMINANCE_THRESHOLD`] and
    /// [`crate::spoofdetect::MIN_DETECT_REQUESTS`]); findings come in
    /// bot-name order.
    pub fn spoof_report(&self, threshold: f64, min_requests: u64) -> SpoofReport {
        let strings = self.table.interner();
        let findings = self.bots.iter().filter_map(|(spec, tally)| {
            let per_asn = tally.per_asn().into_iter().map(|(asn, (rows, _))| (asn, rows));
            Some(dominance(spec.canonical, per_asn, strings, threshold, min_requests)?.1)
        });
        SpoofReport { findings: findings.collect() }
    }
}

/// Tally every known bot of `table` in one pass over its rows in
/// nondecreasing time order (a shuffled log is sorted first), each user
/// agent standardized once and each path classified once.
pub fn tally_bots(table: &LogTable) -> BotTallies<'_> {
    let classes = PathClasses::new(table);
    let mut agents = AgentBots::new(BotTally::default());
    let mut anonymous_records = 0;
    for_each_in_time_order(table, table.rows().iter(), |row| {
        match agents.bot_mut(row.useragent, table.interner()) {
            Some(tally) => tally.push(row, &classes),
            None => anonymous_records += 1,
        }
    });
    let (bots, agents) = agents.into_states();
    let known_records = table.len() as u64 - anonymous_records;
    BotTallies { table, agents, bots, known_records, anonymous_records }
}

/// A known bot's rows, in input order (see [`standardize_table`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct BotRowView<'t> {
    /// Canonical name.
    pub name: String,
    /// The bot's rows.
    pub rows: Vec<&'t RecordRow>,
}

/// Known bots' row views by canonical name, plus the rows that matched
/// no known bot (see [`standardize_table`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct StandardizedTable<'t> {
    /// Known-bot views by canonical name.
    pub bots: BTreeMap<String, BotRowView<'t>>,
    /// Rows from agents that matched no known bot.
    pub anonymous: Vec<&'t RecordRow>,
}

impl<'t> StandardizedTable<'t> {
    /// Total rows attributed to known bots.
    pub fn known_bot_records(&self) -> usize {
        self.bots.values().map(|v| v.rows.len()).sum()
    }

    /// Per-bot row slices as an owned map (a copy of every view).
    pub fn per_bot_rows(&self) -> BTreeMap<String, Vec<&'t RecordRow>> {
        self.bots.iter().map(|(k, v)| (k.clone(), v.rows.clone())).collect()
    }
}

/// One row-reference vector per known bot. Kept, hidden, with
/// [`StandardizedTable`], `spoofdetect::detect_rows` and
/// `metrics::crawl_delay_counts_rows`, for the benchmark replay in
/// `botbench/`, which times them; the product tallies bots with
/// [`tally_bots`].
#[doc(hidden)]
pub fn standardize_table(table: &LogTable) -> StandardizedTable<'_> {
    let mut agents = AgentBots::new(Vec::new());
    let mut anonymous = Vec::new();
    for row in table.rows() {
        match agents.bot_mut(row.useragent, table.interner()) {
            Some(rows) => rows.push(row),
            None => anonymous.push(row),
        }
    }
    let views = agents.into_states().0.into_iter().map(|(bot, rows)| {
        (bot.canonical.to_string(), BotRowView { name: bot.canonical.to_string(), rows })
    });
    StandardizedTable { bots: views.collect(), anonymous }
}

/// `AgentBots::slot_of` sentinels: not standardized yet; no known bot.
const UNSEEN: u32 = u32::MAX;
const ANON: u32 = u32::MAX - 1;

/// The one map from user-agent symbols to known bots, holding a
/// consumer's state `T` for each bot. Each symbol is standardized once,
/// on first sight, through one memoizing [`Standardizer`]; the verdict
/// lands in a dense array indexed by [`Sym::index`] that grows with the
/// interner, so a row costs one array read. Bots are stored in
/// first-seen order; [`AgentBots::by_name`] lists them in
/// canonical-name order, whatever order the rows arrived in.
pub(crate) struct AgentBots<T = ()> {
    standardizer: Standardizer,
    /// Per-symbol verdict: [`UNSEEN`], [`ANON`] or an index into `bots`.
    slot_of: Vec<u32>,
    /// Each bot seen, with its state.
    bots: Vec<(&'static BotSpec, T)>,
    /// Canonical name → index into `bots`.
    by_name: BTreeMap<&'static str, u32>,
    /// The state every bot starts from.
    fresh: T,
}

impl<T: Clone> AgentBots<T> {
    /// An empty table whose bots each start from a clone of `fresh`.
    pub(crate) fn new(fresh: T) -> AgentBots<T> {
        AgentBots {
            standardizer: Standardizer::new(),
            slot_of: Vec::new(),
            bots: Vec::new(),
            by_name: BTreeMap::new(),
            fresh,
        }
    }

    /// The state of user agent `ua`'s bot (`None` = anonymous), from
    /// `strings`, the growing interner `ua` comes from.
    #[inline]
    pub(crate) fn bot_mut(&mut self, ua: Sym, strings: &StringInterner) -> Option<&mut T> {
        let slot = match self.slot_of.get(ua.index()) {
            Some(&slot) if slot < ANON => slot,
            Some(&ANON) => return None,
            _ => self.first_sight(ua, strings)?,
        };
        Some(&mut self.bots[slot as usize].1)
    }

    #[cold]
    fn first_sight(&mut self, ua: Sym, strings: &StringInterner) -> Option<u32> {
        self.slot_of.resize(strings.len(), UNSEEN);
        let verdict = match self.standardizer.standardize(strings.resolve(ua)) {
            None => ANON,
            Some(found) => *self.by_name.entry(found.bot.canonical).or_insert_with(|| {
                self.bots.push((found.bot, self.fresh.clone()));
                (self.bots.len() - 1) as u32
            }),
        };
        self.slot_of[ua.index()] = verdict;
        (verdict != ANON).then_some(verdict)
    }

    /// Every bot seen so far with its state, in canonical-name order.
    pub(crate) fn by_name(&self) -> impl Iterator<Item = &(&'static BotSpec, T)> + '_ {
        self.by_name.values().map(|&slot| &self.bots[slot as usize])
    }

    /// Every bot with its state, in canonical-name order, and the same
    /// verdicts with no state.
    pub(crate) fn into_states(mut self) -> (Vec<(&'static BotSpec, T)>, AgentBots) {
        let listed = self.by_name.values().map(|&slot| {
            let (bot, state) = &mut self.bots[slot as usize];
            (*bot, std::mem::replace(state, self.fresh.clone()))
        });
        (listed.collect(), self.with_state(()))
    }

    /// The same verdicts, every bot's state reset to `fresh`.
    pub(crate) fn with_state<U: Clone>(self, fresh: U) -> AgentBots<U> {
        AgentBots {
            standardizer: self.standardizer,
            slot_of: self.slot_of,
            bots: self.bots.into_iter().map(|(bot, _)| (bot, fresh.clone())).collect(),
            by_name: self.by_name,
            fresh,
        }
    }

    /// The bot of user agent `ua` if it was seen and names one.
    pub(crate) fn get(&self, ua: Sym) -> Option<&'static BotSpec> {
        let slot = *self.slot_of.get(ua.index())?;
        (slot < ANON).then(|| self.bots[slot as usize].0)
    }
}

/// Visit `rows` (a subsequence of `table`'s rows) in nondecreasing
/// time order, the order the push engines require. A table whose
/// timestamps never decrease — every simnet, coupled and monitor table
/// — is visited as is; otherwise the rows are stably sorted by
/// timestamp first.
pub(crate) fn for_each_in_time_order<'t>(
    table: &'t LogTable,
    rows: impl Iterator<Item = &'t RecordRow>,
    f: impl FnMut(&'t RecordRow),
) {
    if table.rows().windows(2).all(|w| w[0].timestamp <= w[1].timestamp) {
        rows.for_each(f);
    } else {
        let mut sorted: Vec<&RecordRow> = rows.collect();
        sorted.sort_by_key(|row| row.timestamp);
        sorted.into_iter().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_useragent::BotCategory;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;

    fn rec(ua: &str, t: u64) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: "GOOGLE".into(),
            sitename: "s".into(),
            uri_path: "/".into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    #[test]
    fn known_bots_are_tallied() {
        let records = vec![
            rec("Mozilla/5.0 (compatible; GPTBot/1.1)", 0),
            rec("Mozilla/5.0 (compatible; GPTBot/1.2)", 1), // version variant
            rec("Mozilla/5.0 (compatible; bingbot/2.0)", 2),
            rec("Mozilla/5.0 (Windows NT 10.0) Chrome/120 Safari/537", 3),
        ];
        let table = LogTable::from_records(&records);
        let tallies = tally_bots(&table);
        let names: Vec<&str> = tallies.bots.iter().map(|(bot, _)| bot.canonical).collect();
        assert_eq!(names, ["GPTBot", "bingbot"]);
        let gpt = tallies.get("GPTBot").expect("tallied");
        assert_eq!((gpt.records, gpt.bytes), (2, 2), "UA variants merge");
        // Two raw variants are two τ groups of one access each.
        assert_eq!(gpt.crawl_delay(), DirectiveCounts { successes: 2, trials: 2 });
        assert_eq!(tallies.get("bingbot").map(|b| b.records), Some(1));
        assert!(tallies.get("Chrome").is_none());
        assert_eq!((tallies.known_records, tallies.anonymous_records), (3, 1));

        // The benchmark replay's views agree, each in input order.
        let logs = standardize_table(&table);
        assert_eq!(logs.bots["GPTBot"].rows.len(), 2);
        assert_eq!(logs.known_bot_records(), 3);
        let gpt: Vec<AccessRecord> =
            logs.bots["GPTBot"].rows.iter().map(|r| table.materialize(r)).collect();
        assert_eq!(gpt, records[..2]);
        assert_eq!(table.materialize(logs.anonymous[0]), records[3]);
    }

    #[test]
    fn metadata_attached() {
        let table = LogTable::from_records(&[rec("Bytespider; spider-feedback@bytedance.com", 0)]);
        let tallies = tally_bots(&table);
        let (bot, _) = tallies.bots[0];
        assert_eq!(bot.canonical, "Bytespider");
        assert_eq!(bot.category, BotCategory::AiDataScraper);
        assert_eq!(bot.sponsor, "ByteDance");
        assert_eq!(bot.respects_robots, botscope_useragent::RobotsPromise::No);
    }

    #[test]
    fn tallies_split_by_asn_and_classify_paths() {
        let ua = "Mozilla/5.0 (compatible; Googlebot/2.1)";
        let at = |asn: &str, t: u64, path: &str| AccessRecord {
            asn: asn.into(),
            uri_path: path.into(),
            bytes: 10,
            ..rec(ua, t)
        };
        // Newest first: the fold visits them in time order.
        let table = LogTable::from_records(&[
            at("M247", 400, "/secure/x"),
            at("GOOGLE", 300, "/robots.txt"),
            at("GOOGLE", 100, "/404"),
            at("GOOGLE", 90, "/robots.txt"),
            at("GOOGLE", 0, "/a"),
        ]);
        let tallies = tally_bots(&table);
        let g = tallies.get("Googlebot").expect("tallied");
        assert_eq!((g.records, g.bytes, g.trap_hits()), (5, 50, 2));
        assert_eq!(g.robots_fetches, [90, 300]);
        // GOOGLE deltas 90, 10, 200 (two compliant); M247 one access.
        assert_eq!(g.crawl_delay(), DirectiveCounts { successes: 3, trials: 4 });
        let asn = |name| g.per_asn()[&table.interner().get(name).expect("interned")];
        assert_eq!((asn("GOOGLE"), asn("M247")), ((4, 1), (1, 1)));
        let spoof = tallies.spoof_report(0.75, 1);
        let finding = spoof.finding_for("Googlebot").expect("80 % dominance");
        assert_eq!((finding.main_asn.as_str(), finding.spoofed_requests), ("GOOGLE", 1));
        assert!(tallies.spoof_report(0.9, 1).findings.is_empty());
    }

    const AGENTS: [&str; 6] = [
        "Mozilla/5.0 (compatible; GPTBot/1.1)",
        "Mozilla/5.0 (compatible; bingbot/2.0)",
        "Mozilla/5.0 (Windows NT 10.0) Chrome/120 Safari/537",
        "Bytespider; spider-feedback@bytedance.com",
        "Mozilla/5.0 (compatible; GPTBot/1.2)",
        "Mozilla/5.0 (compatible; AhrefsBot/7.0)",
    ];

    /// The canonical names `agents` lists, in listing order, with each
    /// bot's state.
    fn listing<T: Copy>(agents: &AgentBots<T>) -> Vec<(&'static str, T)> {
        agents.by_name().map(|&(bot, state)| (bot.canonical, state)).collect()
    }

    #[test]
    fn agent_variants_share_a_slot_and_anonymous_agents_get_none() {
        let mut strings = StringInterner::new();
        let mut agents = AgentBots::new(0u32);
        let v1 = strings.intern(AGENTS[0]);
        let v2 = strings.intern(AGENTS[4]);
        let chrome = strings.intern(AGENTS[2]);
        let mut count = |ua| {
            let rows = agents.bot_mut(ua, &strings)?;
            *rows += 1;
            Some(*rows)
        };
        assert_eq!(count(v1), Some(1));
        assert_eq!(count(v2), Some(2), "GPTBot/1.1 and /1.2 are one bot");
        assert_eq!(count(chrome), None);
        assert_eq!(count(chrome), None, "the anonymous verdict is cached");
        assert_eq!(listing(&agents), [("GPTBot", 2)]);
        assert_eq!(agents.get(v2).map(|bot| bot.canonical), Some("GPTBot"));
        assert_eq!(agents.get(chrome), None);
    }

    #[test]
    fn agent_listing_ignores_arrival_order() {
        let mut strings = StringInterner::new();
        let syms: Vec<Sym> = AGENTS.iter().map(|ua| strings.intern(ua)).collect();
        // Each bot's state is the symbol it was first seen under.
        let mut forward = AgentBots::new(None);
        let mut reversed = AgentBots::new(None);
        for &ua in &syms {
            forward.bot_mut(ua, &strings).map(|first| *first.get_or_insert(ua.index()));
        }
        for &ua in syms.iter().rev() {
            reversed.bot_mut(ua, &strings).map(|first| *first.get_or_insert(ua.index()));
        }
        let names = |agents| listing(agents).into_iter().map(|(name, _)| name).collect::<Vec<_>>();
        assert_eq!(names(&forward), ["AhrefsBot", "Bytespider", "GPTBot", "bingbot"]);
        assert_eq!(names(&reversed), names(&forward));
        // First sight differs (GPTBot/1.1 vs /1.2); the listing does not.
        assert_eq!(listing(&forward)[2], ("GPTBot", Some(0)));
        assert_eq!(listing(&reversed)[2], ("GPTBot", Some(4)));
    }

    #[test]
    fn agent_verdicts_grow_like_a_one_shot_table() {
        let mut full = StringInterner::new();
        for ua in AGENTS {
            full.intern(ua);
            full.intern("/robots.txt"); // symbols that are never agents
        }
        let mut one_shot = AgentBots::new(());
        let verdicts: Vec<bool> =
            full.iter().map(|(sym, _)| one_shot.bot_mut(sym, &full).is_some()).collect();

        let mut strings = StringInterner::new();
        let mut grown = AgentBots::new(());
        for (sym, s) in full.iter() {
            assert_eq!(strings.intern(s), sym);
            let known = grown.bot_mut(sym, &strings).is_some();
            assert_eq!(known, verdicts[sym.index()], "{s}");
        }
        assert_eq!(listing(&grown), listing(&one_shot));
        for (sym, _) in full.iter() {
            assert_eq!(grown.get(sym), one_shot.get(sym));
        }
    }

    #[test]
    fn empty_input() {
        let table = LogTable::from_records(&[]);
        let tallies = tally_bots(&table);
        assert!(tallies.bots.is_empty());
        assert_eq!(tallies.known_records + tallies.anonymous_records, 0);
        assert!(tallies.spoof_report(0.9, 0).findings.is_empty());
        let logs = standardize_table(&table);
        assert!(logs.bots.is_empty());
        assert!(logs.anonymous.is_empty());
    }
}
