//! Anonymous background traffic.
//!
//! The study's dataset is dominated by agents that are *not* known bots:
//! Table 2 counts 231,859 unique IPs and 19,250 unique user agents overall
//! against 11,291 IPs and 405 user agents for known bots. We model that
//! long tail as interactive browser sessions from residential and
//! university networks, with per-entity browser version jitter so the
//! unique-user-agent gap in Table 2 reproduces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use botscope_asn::ip_for;

use crate::engine::{crawlable_pool, ShardWriter, World};
use crate::site::PageKind;

/// Residential/consumer networks anonymous visitors arrive from.
const ANON_ASNS: [&str; 5] = ["COMCAST-7922", "ATT-7018", "VERIZON-701", "DTAG", "UNIVERSITY-NET"];

/// Browser UA templates; `{v}` is replaced with a per-entity version.
const BROWSER_TEMPLATES: [&str; 4] = [
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/{v}.0.0.0 Safari/537.36",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/{v}.1 Safari/605.1.15",
    "Mozilla/5.0 (X11; Linux x86_64; rv:{v}.0) Gecko/20100101 Firefox/{v}.0",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/{v}.0.0.0 Safari/537.36 Edg/{v}.0",
];

/// Number of anonymous entities at scale 1.0 over the paper's 46 days.
const ENTITIES_AT_SCALE_1: f64 = 3000.0;

/// Generate the anonymous traffic into the shard.
pub(crate) fn generate(world: &World<'_>, out: &mut ShardWriter) {
    let cfg = world.cfg;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA11_0A11);
    let entities =
        ((ENTITIES_AT_SCALE_1 * cfg.scale * cfg.days as f64 / 46.0).ceil() as usize).max(1);
    let horizon = cfg.days * 86_400;
    let referer_sym = out.table.intern("https://www.google.com/search");

    for e in 0..entities {
        let template = BROWSER_TEMPLATES[e % BROWSER_TEMPLATES.len()];
        let version = 100 + rng.gen_range(0..30);
        let build = rng.gen_range(1000..7000);
        // Per-entity build jitter reproduces Table 2's wide unique-UA gap
        // between all traffic and known bots.
        let ua = out.table.intern(&template.replace("{v}", &format!("{version}.{build}")));
        // 60% arrive from the big consumer ISPs; the rest from a long tail
        // of small networks (Table 2 counts 8,841 unique ASNs overall vs
        // 179 for known bots).
        let (asn, ip_hash) = if e % 5 < 3 {
            let asn = ANON_ASNS[e % ANON_ASNS.len()];
            let ip = ip_for(asn, e as u32).expect("anon ASN in directory");
            (out.table.intern(asn), world.hasher.hash_ipv4(ip))
        } else {
            let asn = format!("AS{}", 20_000 + e);
            (out.table.intern(&asn), world.hasher.hash_bytes(&(e as u64).to_le_bytes()))
        };

        // Each entity browses in a handful of short sessions.
        let sessions = 1 + rng.gen_range(0..4);
        for _ in 0..sessions {
            let mut t = rng.gen_range(0..horizon);
            let site_index = rng.gen_range(0..world.n_sites());
            let site = out.site_sym(site_index);
            let pages = 1 + rng.gen_range(0..6);
            for _ in 0..pages {
                let pool = crawlable_pool(world, site_index);
                let page = pool[rng.gen_range(0..pool.len())];
                // Humans skim; they rarely pull page-data assets directly.
                if page.kind == PageKind::PageData && rng.gen_bool(0.8) {
                    continue;
                }
                let bytes = (page.bytes as f64 * rng.gen_range(0.8..1.2)) as u64;
                let referer = if rng.gen_bool(0.4) { Some(referer_sym) } else { None };
                let path = out.page_path(site_index, page);
                out.emit(ua, asn, site, ip_hash, path, bytes, 200, referer, cfg.start.plus_secs(t));
                t += rng.gen_range(5..120);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use botscope_weblog::record::AccessRecord;

    fn browser_asn(asn: &str) -> bool {
        ANON_ASNS.contains(&asn) || asn.starts_with("AS2")
    }

    /// Direct harness: run only the anon generator into a shard.
    fn generate_only(cfg: &SimConfig) -> Vec<AccessRecord> {
        let estate = crate::site::Site::estate(cfg.sites);
        let hasher = botscope_weblog::iphash::IpHasher::from_seed(cfg.seed);
        let world = World::new_for_tests(cfg, &estate, &hasher);
        let mut writer = ShardWriter::new(&world);
        generate(&world, &mut writer);
        writer.table.to_records()
    }

    #[test]
    fn generates_browser_traffic() {
        let cfg = SimConfig { anon_traffic: true, ..SimConfig::test_small() };
        let out = generate_only(&cfg);
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.useragent.starts_with("Mozilla/5.0")));
        assert!(out.iter().all(|r| browser_asn(&r.asn)));
    }

    #[test]
    fn deterministic() {
        let cfg = SimConfig::test_small();
        assert_eq!(generate_only(&cfg), generate_only(&cfg));
    }

    #[test]
    fn many_unique_user_agents() {
        let cfg = SimConfig { scale: 0.2, ..SimConfig::test_small() };
        let out = generate_only(&cfg);
        let uas: std::collections::HashSet<&str> =
            out.iter().map(|r| r.useragent.as_str()).collect();
        assert!(uas.len() > 10, "browser UA variety expected, got {}", uas.len());
    }

    #[test]
    fn no_robots_fetches() {
        let cfg = SimConfig::test_small();
        let out = generate_only(&cfg);
        assert!(out.iter().all(|r| !r.is_robots_fetch()), "browsers don't read robots.txt");
    }
}
