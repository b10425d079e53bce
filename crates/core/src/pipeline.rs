//! Preprocessing glue: raw logs → per-bot views.
//!
//! Reproduces the study's §3.1 enrichment: standardize every user agent
//! against the known-bot corpus, attach the Dark-Visitors category, and
//! split the dataset into known-bot traffic and the anonymous remainder.
//!
//! Which known bot a user agent belongs to is decided once per symbol,
//! in the crate-private `AgentBots` table that every engine here reads.

use std::collections::BTreeMap;

use botscope_useragent::{BotCategory, BotSpec, Standardizer};
use botscope_weblog::intern::{StringInterner, Sym};
use botscope_weblog::table::{LogTable, RecordRow};

/// A known bot's slice of a [`LogTable`].
#[derive(Debug, Clone)]
pub struct BotRowView<'t> {
    /// Canonical name (registry spelling).
    pub name: String,
    /// Category.
    pub category: BotCategory,
    /// Whether the operator publicly promises to respect robots.txt.
    pub promise: botscope_useragent::RobotsPromise,
    /// Sponsoring entity.
    pub sponsor: &'static str,
    /// The bot's rows, in input order.
    pub rows: Vec<&'t RecordRow>,
}

/// The standardized table: known bots by name, plus everything that did
/// not match the corpus.
#[derive(Debug, Clone)]
pub struct StandardizedTable<'t> {
    /// The table the row views borrow from.
    pub table: &'t LogTable,
    /// Known-bot views, keyed by canonical name (deterministic order).
    pub bots: BTreeMap<String, BotRowView<'t>>,
    /// Rows from agents that matched no known bot.
    pub anonymous: Vec<&'t RecordRow>,
}

impl<'t> StandardizedTable<'t> {
    /// Total rows attributed to known bots.
    pub fn known_bot_records(&self) -> usize {
        self.bots.values().map(|v| v.rows.len()).sum()
    }

    /// Per-bot row slices as an owned map. This copies every view's row
    /// references; `detect_rows` also takes the views without a copy.
    pub fn per_bot_rows(&self) -> BTreeMap<String, Vec<&'t RecordRow>> {
        self.bots.iter().map(|(k, v)| (k.clone(), v.rows.clone())).collect()
    }

    /// Bots in a category.
    pub fn in_category(&self, category: BotCategory) -> Vec<&BotRowView<'t>> {
        self.bots.values().filter(|v| v.category == category).collect()
    }
}

/// Standardize a whole table. See [`standardize_rows`].
pub fn standardize_table(table: &LogTable) -> StandardizedTable<'_> {
    standardize_rows(table, table.rows())
}

/// Standardize a row subset of a table. Each distinct user-agent
/// *symbol* is standardized once, so the per-row cost is one array read.
pub fn standardize_rows<'t, I>(table: &'t LogTable, rows: I) -> StandardizedTable<'t>
where
    I: IntoIterator<Item = &'t RecordRow>,
{
    standardize_agents(table, rows).0
}

/// [`standardize_rows`], also handing back the verdict table it built.
pub(crate) fn standardize_agents<'t>(
    table: &'t LogTable,
    rows: impl IntoIterator<Item = &'t RecordRow>,
) -> (StandardizedTable<'t>, AgentBots) {
    let mut agents = AgentBots::new(Vec::new());
    let mut anonymous: Vec<&'t RecordRow> = Vec::new();
    for row in rows {
        match agents.bot_mut(row.useragent, table.interner()) {
            None => anonymous.push(row),
            Some(bot_rows) => bot_rows.push(row),
        }
    }
    let bots = agents
        .bots
        .iter_mut()
        .map(|(bot, rows)| {
            let view = BotRowView {
                name: bot.canonical.to_string(),
                category: bot.category,
                promise: bot.respects_robots,
                sponsor: bot.sponsor,
                rows: std::mem::take(rows),
            };
            (view.name.clone(), view)
        })
        .collect();
    (StandardizedTable { table, bots, anonymous }, agents.with_state(()))
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
    fn known_bots_are_grouped() {
        let records = vec![
            rec("Mozilla/5.0 (compatible; GPTBot/1.1)", 0),
            rec("Mozilla/5.0 (compatible; GPTBot/1.2)", 1), // version variant
            rec("Mozilla/5.0 (compatible; bingbot/2.0)", 2),
            rec("Mozilla/5.0 (Windows NT 10.0) Chrome/120 Safari/537", 3),
        ];
        let table = LogTable::from_records(&records);
        let logs = standardize_table(&table);
        assert_eq!(logs.bots["GPTBot"].rows.len(), 2, "UA variants merge");
        assert_eq!(logs.bots["bingbot"].rows.len(), 1);
        assert_eq!(logs.anonymous.len(), 1);
        assert_eq!(logs.known_bot_records(), 3);
        // A view keeps its rows in input order.
        let gpt: Vec<AccessRecord> =
            logs.bots["GPTBot"].rows.iter().map(|r| table.materialize(r)).collect();
        assert_eq!(gpt, records[..2]);
        assert_eq!(table.materialize(logs.anonymous[0]), records[3]);
    }

    #[test]
    fn metadata_attached() {
        let table = LogTable::from_records(&[rec("Bytespider; spider-feedback@bytedance.com", 0)]);
        let logs = standardize_table(&table);
        let v = &logs.bots["Bytespider"];
        assert_eq!(v.category, BotCategory::AiDataScraper);
        assert_eq!(v.sponsor, "ByteDance");
        assert_eq!(v.promise, botscope_useragent::RobotsPromise::No);
    }

    #[test]
    fn category_query() {
        let table = LogTable::from_records(&[
            rec("Mozilla/5.0 (compatible; SemrushBot/7~bl)", 0),
            rec("Mozilla/5.0 (compatible; AhrefsBot/7.0)", 1),
        ]);
        let logs = standardize_table(&table);
        assert_eq!(logs.in_category(BotCategory::SeoCrawler).len(), 2);
        assert!(logs.in_category(BotCategory::Archiver).is_empty());
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
        let logs = standardize_table(&table);
        assert!(logs.bots.is_empty());
        assert!(logs.anonymous.is_empty());
    }
}
