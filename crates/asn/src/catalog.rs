//! Ground-truth spoofing catalog (paper Table 8).
//!
//! The paper flags 18 bots whose traffic was ≥90 % from one ASN yet showed
//! residual requests from other networks — likely user-agent spoofing. This
//! module encodes that table verbatim. The traffic simulator *plants*
//! spoofed traffic according to these profiles; the analysis pipeline in
//! `botscope-core` must then rediscover them from the logs alone, closing
//! the generator→analyzer validation loop.

/// One row of Table 8: a bot, its dominant network, and the suspicious
/// minority networks observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpoofProfile {
    /// Canonical bot name (matches `botscope-useragent` registry names).
    pub bot: &'static str,
    /// The dominant ASN carrying ≥90 % of the bot's traffic.
    pub main_asn: &'static str,
    /// Minority ASNs (<5 % of traffic each) flagged as possible spoofing.
    pub suspicious_asns: &'static [&'static str],
}

/// Paper Table 8, row for row.
pub const SPOOF_CATALOG: &[SpoofProfile] = &[
    SpoofProfile { bot: "AdsBot-Google", main_asn: "GOOGLE", suspicious_asns: &["DMZHOST"] },
    SpoofProfile { bot: "AhrefsBot", main_asn: "OVH", suspicious_asns: &["AHREFS-AS-AP"] },
    SpoofProfile {
        bot: "Amazonbot",
        main_asn: "AMAZON-AES",
        suspicious_asns: &["CONTABO", "DIGITALOCEAN-ASN"],
    },
    SpoofProfile {
        bot: "Baiduspider",
        main_asn: "CHINA169-Backbone",
        suspicious_asns: &[
            "CHINAMOBILE-CN",
            "CHINANET-BACKBONE",
            "CHINANET-IDC-BJ-AP",
            "CHINATELECOM-JIANGSU-NANJING-IDC",
            "CHINATELECOM-ZHEJIANG-WENZHOU-IDC",
            "HINET",
        ],
    },
    SpoofProfile {
        bot: "bingbot",
        main_asn: "MICROSOFT-CORP-MSN-AS-BLOCK",
        suspicious_asns: &[
            "Clouvider",
            "HOL-GR",
            "MICROSOFT-CORP-AS",
            "ORG-TNL2-AFRINIC",
            "ORG-VNL1-AFRINIC",
        ],
    },
    SpoofProfile {
        bot: "ClaudeBot",
        main_asn: "AMAZON-02",
        suspicious_asns: &["GOOGLE-CLOUD-PLATFORM"],
    },
    SpoofProfile {
        bot: "DuckDuckBot",
        main_asn: "MICROSOFT-CORP-MSN-AS-BLOCK",
        suspicious_asns: &["DIGITALOCEAN-ASN31", "INTERQ31"],
    },
    SpoofProfile {
        bot: "facebookexternalhit",
        main_asn: "FACEBOOK",
        suspicious_asns: &["AMAZON-02", "AMAZON-AES", "KAKAO-AS-KR-KR51"],
    },
    SpoofProfile {
        bot: "GPTBot",
        main_asn: "MICROSOFT-CORP-MSN-AS-BLOCK",
        suspicious_asns: &["BORUSANTELEKOM-AS"],
    },
    SpoofProfile { bot: "Google Web Preview", main_asn: "GOOGLE", suspicious_asns: &["AMAZON-02"] },
    SpoofProfile { bot: "Googlebot-Image", main_asn: "GOOGLE", suspicious_asns: &["AMAZON-02"] },
    SpoofProfile {
        bot: "Googlebot",
        main_asn: "GOOGLE",
        suspicious_asns: &[
            "52468",
            "ASN-SATELLITE",
            "ASN270353",
            "CDNEXT",
            "CHINANET-BACKBONE",
            "Clouvider",
            "DATACLUB",
            "HOL-GR",
            "HWCLOUDS-AS-AP",
            "IT7NET",
            "LIMESTONENETWORKS",
            "M247",
            "ORG-RTL1-AFRINIC",
            "ORG-TNL2-AFRINIC",
            "P4NET",
            "PROSPERO-AS",
            "RELIABLESITE",
            "RELIANCEJIO-IN",
            "ROSTELECOM-AS",
            "ROUTERHOSTING",
            "TENCENT-NET-AP-CN",
            "Telefonica_de_Espana",
            "VCG-AS",
        ],
    },
    SpoofProfile {
        bot: "meta-externalagent",
        main_asn: "FACEBOOK",
        suspicious_asns: &["DIGITALOCEAN-ASN"],
    },
    SpoofProfile {
        bot: "SkypeUriPreview",
        main_asn: "MICROSOFT-CORP-MSN-AS-BLOCK",
        suspicious_asns: &["AMAZON-AES", "M247"],
    },
    SpoofProfile {
        bot: "Snap URL Preview Service",
        main_asn: "AMAZON-AES",
        suspicious_asns: &["AMAZON-02"],
    },
    SpoofProfile {
        bot: "Twitterbot",
        main_asn: "TWITTER",
        suspicious_asns: &["PROSPERO-AS", "TELEGRAM"],
    },
    SpoofProfile {
        bot: "yandex.com/bots",
        main_asn: "YANDEX",
        suspicious_asns: &["AMAZON-02", "AMAZON-AES", "PROSPERO-AS"],
    },
];

/// The catalog (convenience accessor).
pub fn spoof_catalog() -> &'static [SpoofProfile] {
    SPOOF_CATALOG
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::lookup;

    #[test]
    fn paper_row_count() {
        // Table 8 lists 17 rows (the paper's text says "18 bots"; the
        // printed table has 17 — we encode the printed rows).
        assert_eq!(SPOOF_CATALOG.len(), 17);
    }

    #[test]
    fn every_asn_resolves_in_directory() {
        for p in SPOOF_CATALOG {
            assert!(lookup(p.main_asn).is_some(), "main {} missing", p.main_asn);
            for s in p.suspicious_asns {
                assert!(lookup(s).is_some(), "suspicious {s} missing for {}", p.bot);
            }
        }
    }

    #[test]
    fn googlebot_has_widest_spoofing() {
        let g = SPOOF_CATALOG.iter().find(|p| p.bot == "Googlebot").unwrap();
        assert!(g.suspicious_asns.len() >= 20, "paper: up to 24 ASNs");
        let max = SPOOF_CATALOG.iter().map(|p| p.suspicious_asns.len()).max().unwrap();
        assert_eq!(max, g.suspicious_asns.len());
    }

    #[test]
    fn main_asn_never_in_suspicious_list() {
        for p in SPOOF_CATALOG {
            assert!(
                !p.suspicious_asns.contains(&p.main_asn),
                "{} lists its main ASN as suspicious",
                p.bot
            );
        }
    }
}
