//! Preprocessing glue: raw logs → per-bot views.
//!
//! Reproduces the study's §3.1 enrichment: standardize every user agent
//! against the known-bot corpus, attach the Dark-Visitors category, and
//! split the dataset into known-bot traffic and the anonymous remainder.

use std::collections::BTreeMap;

use botscope_useragent::{BotCategory, BotSpec, Standardizer};
use botscope_weblog::intern::Sym;
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

    /// Per-bot row slices as the spoof detector expects them.
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
/// *symbol* is standardized once, so the per-row cost is one integer
/// index. Grouping rows into per-bot views runs after the per-agent
/// verdicts are in: one array index per row.
pub fn standardize_rows<'t, I>(table: &'t LogTable, rows: I) -> StandardizedTable<'t>
where
    I: IntoIterator<Item = &'t RecordRow>,
    I::IntoIter: Clone,
{
    let rows = rows.into_iter();
    let (distinct, spec_of) = agent_specs(table, rows.clone());

    // Map each agent symbol to its view slot, then group rows with one
    // array index per row.
    let mut slot_of = vec![u32::MAX; table.interner().len()];
    let mut views: Vec<BotRowView<'t>> = Vec::new();
    let mut slot_by_name: BTreeMap<&'static str, u32> = BTreeMap::new();
    for &sym in &distinct {
        if let Some(bot) = spec_of[sym.index()] {
            let slot = *slot_by_name.entry(bot.canonical).or_insert_with(|| {
                views.push(view_for(bot));
                (views.len() - 1) as u32
            });
            slot_of[sym.index()] = slot;
        }
    }
    let mut anonymous: Vec<&'t RecordRow> = Vec::new();
    for row in rows {
        match slot_of[row.useragent.index()] {
            u32::MAX => anonymous.push(row),
            slot => views[slot as usize].rows.push(row),
        }
    }
    let bots: BTreeMap<String, BotRowView<'t>> =
        views.into_iter().map(|v| (v.name.clone(), v)).collect();
    StandardizedTable { table, bots, anonymous }
}

/// The standardization verdict of every distinct user agent among
/// `rows`: the distinct symbols in first-appearance order, and the
/// verdicts indexed by [`Sym::index`] (`None` = anonymous, or not the
/// user agent of any of `rows`).
///
/// One [`Standardizer`] serves every agent, so each distinct candidate
/// token is fuzzy-scored once. That makes the whole pass a few
/// milliseconds at paper scale, so it runs on the calling thread.
pub(crate) fn agent_specs<'t>(
    table: &'t LogTable,
    rows: impl IntoIterator<Item = &'t RecordRow>,
) -> (Vec<Sym>, Vec<Option<&'static BotSpec>>) {
    let mut standardizer = Standardizer::new();
    let mut distinct: Vec<Sym> = Vec::new();
    let mut seen = vec![false; table.interner().len()];
    let mut spec_of: Vec<Option<&'static BotSpec>> = vec![None; table.interner().len()];
    for row in rows {
        let i = row.useragent.index();
        if !seen[i] {
            seen[i] = true;
            distinct.push(row.useragent);
            spec_of[i] = standardizer.standardize(table.resolve(row.useragent)).map(|s| s.bot);
        }
    }
    (distinct, spec_of)
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

/// An empty [`BotRowView`] carrying a spec's metadata.
fn view_for(bot: &'static BotSpec) -> BotRowView<'static> {
    BotRowView {
        name: bot.canonical.to_string(),
        category: bot.category,
        promise: bot.respects_robots,
        sponsor: bot.sponsor,
        rows: Vec::new(),
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

    #[test]
    fn empty_input() {
        let table = LogTable::from_records(&[]);
        let logs = standardize_table(&table);
        assert!(logs.bots.is_empty());
        assert!(logs.anonymous.is_empty());
    }
}
