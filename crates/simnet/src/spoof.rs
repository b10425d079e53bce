//! User-agent spoofing traffic (paper §5.2, Tables 8/9, Figure 11).
//!
//! For each Table 8 profile we plant a trickle of requests carrying the
//! spoofed bot's exact `User-Agent` header but originating from the
//! profile's suspicious minority networks. Volumes follow the paper: "on
//! average, less than 5 web accesses associated with these infrequent
//! ASNs for most of the flagged bots", with the three notable exceptions
//! scaled from Table 8's text — Baiduspider 381/15132, Googlebot 33/9103,
//! SkypeURIPreview 26/831 over the 40-day window. Spoofers ignore
//! robots.txt entirely (they never fetch it and never comply), which is
//! what Figure 11 observes for most spoofed bots.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use botscope_asn::catalog::SPOOF_CATALOG;
use botscope_asn::ip_for;

use crate::engine::{crawlable_pool, ShardWriter, World};
use crate::fleet::SimBot;

/// Total spoofed accesses per bot over the paper's 40-day window
/// (exceptions from §5.2; everything else defaults to ~3 per ASN).
fn spoof_budget(bot: &str, n_suspicious: usize) -> f64 {
    match bot {
        "Baiduspider" => 381.0,
        "Googlebot" => 33.0,
        "SkypeUriPreview" => 26.0,
        _ => 6.0 * n_suspicious as f64,
    }
}

/// Plant spoofed traffic; returns planted request counts per bot name.
pub(crate) fn generate(
    world: &World<'_>,
    fleet: &[SimBot],
    out: &mut ShardWriter,
) -> BTreeMap<String, u64> {
    let cfg = world.cfg;
    // Spoofers ignore the robots.txt schedule by definition.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5B00F);
    let mut planted: BTreeMap<String, u64> = BTreeMap::new();
    let horizon = cfg.days * 86_400;

    for profile in SPOOF_CATALOG {
        // The spoofer sends the *exact* UA header the real bot sends, so
        // the analysis pipeline groups them together — that's the attack.
        let Some(victim) = fleet.iter().find(|b| b.spec.canonical == profile.bot) else {
            continue;
        };
        let ua = out.table.intern(&victim.ua_string);
        let total =
            spoof_budget(profile.bot, profile.suspicious_asns.len()) * cfg.scale * cfg.days as f64
                / 40.0;
        // At least one request per suspicious ASN so Table 8 rows are
        // rediscoverable at any scale.
        for (ai, asn) in profile.suspicious_asns.iter().enumerate() {
            let share = (total / profile.suspicious_asns.len() as f64).ceil().max(1.0) as u64;
            let ip = ip_for(asn, 7000 + ai as u32).expect("suspicious ASN in directory");
            let ip_hash = world.hasher.hash_ipv4(ip);
            let asn_sym = out.table.intern(asn);
            for _ in 0..share {
                let t = rng.gen_range(0..horizon);
                // Spoofers chase content where it is: half their requests
                // hit the high-traffic experiment site — which is also
                // what makes them visible in the per-phase spoof counts
                // (paper Table 9) and Figure 11.
                let site_index =
                    if rng.gen_bool(0.5) { 0 } else { rng.gen_range(0..world.n_sites()) };
                let pool = crawlable_pool(world, site_index);
                let page = pool[rng.gen_range(0..pool.len())];
                let bytes = (page.bytes as f64 * rng.gen_range(0.5..1.5)) as u64;
                let path = out.page_path(site_index, page);
                out.emit(
                    ua,
                    asn_sym,
                    out.site_sym(site_index),
                    ip_hash,
                    path,
                    bytes,
                    200,
                    None,
                    cfg.start.plus_secs(t),
                );
                *planted.entry(profile.bot.to_string()).or_default() += 1;
            }
        }
    }
    planted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::fleet::build_fleet;

    use crate::site::Site;
    use botscope_weblog::iphash::IpHasher;
    use botscope_weblog::record::AccessRecord;

    /// Run only the spoof generator into a shard.
    fn generate_only(cfg: &SimConfig) -> (Vec<AccessRecord>, BTreeMap<String, u64>, Vec<SimBot>) {
        let estate = Site::estate(cfg.sites);
        let hasher = IpHasher::from_seed(cfg.seed);
        let fleet = build_fleet();
        let world = World::new_for_tests(cfg, &estate, &hasher);
        let mut writer = ShardWriter::new(&world);
        let planted = generate(&world, &fleet, &mut writer);
        (writer.table.to_records(), planted, fleet)
    }

    #[test]
    fn plants_every_catalog_bot() {
        let (_, planted, fleet) = generate_only(&SimConfig::test_small());
        // Every catalog bot present in the fleet got at least one spoof.
        for profile in SPOOF_CATALOG {
            if fleet.iter().any(|b| b.spec.canonical == profile.bot) {
                assert!(planted.get(profile.bot).copied().unwrap_or(0) > 0, "{}", profile.bot);
            }
        }
    }

    #[test]
    fn spoofs_come_from_suspicious_asns_only() {
        let (out, _, fleet) = generate_only(&SimConfig::test_small());
        for r in &out {
            let profile = SPOOF_CATALOG
                .iter()
                .find(|p| {
                    fleet.iter().any(|b| b.spec.canonical == p.bot && b.ua_string == r.useragent)
                })
                .expect("spoof record belongs to a catalog bot");
            assert!(
                profile.suspicious_asns.contains(&r.asn.as_str()),
                "{} spoofed from unexpected ASN {}",
                profile.bot,
                r.asn
            );
            assert_ne!(r.asn, profile.main_asn);
        }
    }

    #[test]
    fn baiduspider_dominates_spoof_volume() {
        let (_, planted, _) = generate_only(&SimConfig::test_small());
        let baidu = planted.get("Baiduspider").copied().unwrap_or(0);
        let claude = planted.get("ClaudeBot").copied().unwrap_or(0);
        assert!(baidu > claude, "Baiduspider has the §5.2 spoof exception");
    }

    #[test]
    fn spoofers_never_fetch_robots() {
        let (out, _, _) = generate_only(&SimConfig::test_small());
        assert!(out.iter().all(|r| !r.is_robots_fetch()));
    }

    #[test]
    fn deterministic() {
        let a = generate_only(&SimConfig::test_small());
        let b = generate_only(&SimConfig::test_small());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
