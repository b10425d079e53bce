//! The synthetic ARIN-style whois directory.
//!
//! One record per autonomous system name appearing anywhere in the
//! reproduction: the home networks of every registry bot and every
//! suspicious ASN of the paper's Table 8. Where the AS number is public
//! knowledge the real number is used (e.g. GOOGLE = AS15169); otherwise a
//! synthetic number in the private 64512+ range is assigned. The directory
//! stands in for the paper's live `whoisit` polling.

/// Broad class of network, used by the simulator to shape traffic realism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsnKind {
    /// Hyperscale cloud (AWS, GCP, Azure).
    Cloud,
    /// Corporate network of the bot operator itself.
    Corporate,
    /// Commodity hosting / VPS providers.
    Hosting,
    /// National telecom / consumer ISP.
    Telecom,
    /// Academic or research network.
    Academic,
    /// Mixed residential space.
    Residential,
}

/// One whois record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsnRecord {
    /// Registry name, as printed in the paper's Table 8 (e.g. `AMAZON-02`).
    pub name: &'static str,
    /// AS number.
    pub number: u32,
    /// Registered organization.
    pub org: &'static str,
    /// ISO country code of registration.
    pub country: &'static str,
    /// Network class.
    pub kind: AsnKind,
}

macro_rules! asn {
    ($name:expr, $num:expr, $org:expr, $cc:expr, $kind:ident) => {
        AsnRecord { name: $name, number: $num, org: $org, country: $cc, kind: AsnKind::$kind }
    };
}

/// Every ASN known to the reproduction. Index order is the allocation order
/// used by [`crate::prefix`]; append-only.
pub const DIRECTORY: &[AsnRecord] = &[
    // Hyperscalers and large corporates.
    asn!("GOOGLE", 15169, "Google LLC", "US", Corporate),
    asn!("GOOGLE-CLOUD-PLATFORM", 396982, "Google LLC", "US", Cloud),
    asn!("AMAZON-02", 16509, "Amazon.com, Inc.", "US", Cloud),
    asn!("AMAZON-AES", 14618, "Amazon.com, Inc.", "US", Cloud),
    asn!("MICROSOFT-CORP-MSN-AS-BLOCK", 8075, "Microsoft Corporation", "US", Corporate),
    asn!("MICROSOFT-CORP-AS", 8068, "Microsoft Corporation", "US", Corporate),
    asn!("FACEBOOK", 32934, "Meta Platforms, Inc.", "US", Corporate),
    asn!("APPLE-ENGINEERING", 714, "Apple Inc.", "US", Corporate),
    asn!("TWITTER", 13414, "X Corp.", "US", Corporate),
    asn!("YANDEX", 13238, "Yandex LLC", "RU", Corporate),
    asn!("YAHOO-INC", 10310, "Yahoo Inc.", "US", Corporate),
    asn!("CLOUDFLARENET", 13335, "Cloudflare, Inc.", "US", Cloud),
    asn!("INTERNET-ARCHIVE", 7941, "Internet Archive", "US", Academic),
    // Hosting providers.
    asn!("OVH", 16276, "OVH SAS", "FR", Hosting),
    asn!("HETZNER-AS", 24940, "Hetzner Online GmbH", "DE", Hosting),
    asn!("DIGITALOCEAN-ASN", 14061, "DigitalOcean, LLC", "US", Hosting),
    asn!("DIGITALOCEAN-ASN31", 64531, "DigitalOcean, LLC", "US", Hosting),
    asn!("CONTABO", 51167, "Contabo GmbH", "DE", Hosting),
    asn!("M247", 9009, "M247 Europe SRL", "RO", Hosting),
    asn!("LEASEWEB-NL", 60781, "LeaseWeb Netherlands B.V.", "NL", Hosting),
    asn!("LIMESTONENETWORKS", 46475, "Limestone Networks, Inc.", "US", Hosting),
    asn!("RELIABLESITE", 23470, "ReliableSite.Net LLC", "US", Hosting),
    asn!("ROUTERHOSTING", 398101, "Cloudzy (RouterHosting)", "US", Hosting),
    asn!("IT7NET", 25820, "IT7 Networks Inc.", "CA", Hosting),
    asn!("PROSPERO-AS", 200593, "Prospero OOO", "RU", Hosting),
    asn!("DMZHOST", 64532, "DMZHOST Ltd.", "GB", Hosting),
    asn!("Clouvider", 62240, "Clouvider Limited", "GB", Hosting),
    asn!("DATACLUB", 52048, "DataClub S.A.", "LV", Hosting),
    asn!("P4NET", 64533, "P4NET Hosting", "PL", Hosting),
    asn!("CDNEXT", 212238, "CDNEXT / Datacamp", "GB", Hosting),
    asn!("VCG-AS", 64534, "VCG Hosting", "US", Hosting),
    asn!("INTERQ31", 64535, "InterQ GMO", "JP", Hosting),
    // Telecoms.
    asn!("CHINANET-BACKBONE", 4134, "China Telecom", "CN", Telecom),
    asn!("CHINA169-Backbone", 4837, "China Unicom", "CN", Telecom),
    asn!("CHINAMOBILE-CN", 9808, "China Mobile", "CN", Telecom),
    asn!("CHINANET-IDC-BJ-AP", 23724, "China Telecom IDC Beijing", "CN", Telecom),
    asn!("CHINATELECOM-JIANGSU-NANJING-IDC", 23650, "China Telecom Jiangsu", "CN", Telecom),
    asn!("CHINATELECOM-ZHEJIANG-WENZHOU-IDC", 64536, "China Telecom Zhejiang", "CN", Telecom),
    asn!("HINET", 3462, "Chunghwa Telecom", "TW", Telecom),
    asn!("Telefonica_de_Espana", 3352, "Telefonica de Espana", "ES", Telecom),
    asn!("ROSTELECOM-AS", 12389, "Rostelecom", "RU", Telecom),
    asn!("RELIANCEJIO-IN", 55836, "Reliance Jio Infocomm", "IN", Telecom),
    asn!("TENCENT-NET-AP-CN", 45090, "Tencent Cloud", "CN", Cloud),
    asn!("ALIBABA-CN-NET", 37963, "Alibaba Cloud", "CN", Cloud),
    asn!("HWCLOUDS-AS-AP", 136907, "Huawei Clouds", "CN", Cloud),
    asn!("BORUSANTELEKOM-AS", 34984, "Borusan Telekom", "TR", Telecom),
    asn!("ORANGE-BUSINESS", 2278, "Orange Business Services", "FR", Telecom),
    asn!("NTT-COMMUNICATIONS", 2914, "NTT Communications", "JP", Telecom),
    asn!("VNPT-AS-VN", 45899, "VNPT Corp", "VN", Telecom),
    asn!("NAVER-KR", 23576, "Naver Corp", "KR", Corporate),
    asn!("KAKAO-AS-KR-KR51", 64537, "Kakao Corp", "KR", Corporate),
    asn!("MAILRU-AS", 47764, "VK (Mail.Ru)", "RU", Corporate),
    asn!("TELEGRAM", 62041, "Telegram Messenger", "GB", Corporate),
    // AFRINIC / satellite / misc entries seen in Table 8.
    asn!("ORG-TNL2-AFRINIC", 64538, "TNL AFRINIC Org", "ZA", Telecom),
    asn!("ORG-VNL1-AFRINIC", 64539, "VNL AFRINIC Org", "ZA", Telecom),
    asn!("ORG-RTL1-AFRINIC", 64540, "RTL AFRINIC Org", "ZA", Telecom),
    asn!("HOL-GR", 3329, "Vodafone Greece (HOL)", "GR", Telecom),
    asn!("ASN-SATELLITE", 64541, "Satellite Uplink Services", "US", Telecom),
    asn!("ASN270353", 270353, "LATAM Hosting 270353", "BR", Hosting),
    asn!("52468", 52468, "UFINET Panama", "PA", Telecom),
    // Bot operators and specialist networks.
    asn!("AHREFS-AS-AP", 139119, "Ahrefs Pte. Ltd.", "SG", Corporate),
    asn!("SEMRUSH-AS", 64542, "Semrush Inc.", "US", Corporate),
    asn!("SEZNAM-CZ", 43037, "Seznam.cz a.s.", "CZ", Corporate),
    asn!("MOJEEK-AS", 64543, "Mojeek Ltd.", "GB", Corporate),
    asn!("SISTRIX-AS", 64544, "SISTRIX GmbH", "DE", Corporate),
    asn!("DISTRIBUTED-MAJESTIC", 64545, "Majestic-12 Distributed", "GB", Residential),
    asn!("TURNITIN-AS", 64546, "Turnitin LLC", "US", Corporate),
    asn!("CRITEO-AS", 44788, "Criteo SA", "FR", Corporate),
    asn!("PINGDOM-AS", 64547, "SolarWinds (Pingdom)", "SE", Corporate),
    asn!("CARBON60", 19397, "Carbon60 Networks", "CA", Hosting),
    asn!("W3C-MIT", 64548, "W3C / MIT", "US", Academic),
    asn!("ASK-COM", 64549, "Ask Media Group", "US", Corporate),
    asn!("LATNET", 5538, "LATNET (Riga Technical University)", "LV", Academic),
    asn!("BARRACUDA-AS", 64550, "Barracuda Networks", "US", Corporate),
    asn!("FCCN-PT", 1930, "FCCN (Arquivo.pt)", "PT", Academic),
    asn!("VARIOUS-RESIDENTIAL", 64551, "Mixed Residential Space", "US", Residential),
    asn!("UNIVERSITY-NET", 64552, "Study Institution Network", "US", Academic),
    asn!("COMCAST-7922", 7922, "Comcast Cable", "US", Residential),
    asn!("ATT-7018", 7018, "AT&T Services", "US", Residential),
    asn!("VERIZON-701", 701, "Verizon Business", "US", Residential),
    asn!("DTAG", 3320, "Deutsche Telekom", "DE", Residential),
    asn!("SKYPE-URI-NET", 64553, "Microsoft Skype Infrastructure", "US", Corporate),
];

/// A directory handle (wrapper over the static table with lookups).
#[derive(Debug, Clone, Copy, Default)]
pub struct WhoisDirectory;

impl WhoisDirectory {
    /// Look up a record by registry name (case-sensitive, as Table 8
    /// prints them).
    pub fn by_name(&self, name: &str) -> Option<&'static AsnRecord> {
        DIRECTORY.iter().find(|r| r.name == name)
    }

    /// All records.
    pub fn all(&self) -> &'static [AsnRecord] {
        DIRECTORY
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        DIRECTORY.len()
    }

    /// Whether the directory is empty (never).
    pub fn is_empty(&self) -> bool {
        DIRECTORY.is_empty()
    }
}

/// Convenience free-function lookup by name.
pub fn lookup(name: &str) -> Option<&'static AsnRecord> {
    WhoisDirectory.by_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_numbers_unique() {
        let names: BTreeSet<&str> = DIRECTORY.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), DIRECTORY.len(), "duplicate ASN name");
        let numbers: BTreeSet<u32> = DIRECTORY.iter().map(|r| r.number).collect();
        assert_eq!(numbers.len(), DIRECTORY.len(), "duplicate ASN number");
    }

    #[test]
    fn table8_main_asns_present() {
        for name in [
            "GOOGLE",
            "OVH",
            "AMAZON-AES",
            "CHINA169-Backbone",
            "MICROSOFT-CORP-MSN-AS-BLOCK",
            "AMAZON-02",
            "FACEBOOK",
            "TWITTER",
            "YANDEX",
        ] {
            assert!(lookup(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn table8_suspicious_asns_present() {
        for name in [
            "DMZHOST",
            "AHREFS-AS-AP",
            "CONTABO",
            "DIGITALOCEAN-ASN",
            "CHINAMOBILE-CN",
            "CHINANET-BACKBONE",
            "HINET",
            "Clouvider",
            "HOL-GR",
            "MICROSOFT-CORP-AS",
            "ORG-TNL2-AFRINIC",
            "ORG-VNL1-AFRINIC",
            "GOOGLE-CLOUD-PLATFORM",
            "KAKAO-AS-KR-KR51",
            "BORUSANTELEKOM-AS",
            "Telefonica_de_Espana",
            "PROSPERO-AS",
            "TELEGRAM",
            "M247",
        ] {
            assert!(lookup(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn real_world_numbers_spot_check() {
        assert_eq!(lookup("GOOGLE").unwrap().number, 15169);
        assert_eq!(lookup("AMAZON-02").unwrap().number, 16509);
        assert_eq!(lookup("FACEBOOK").unwrap().number, 32934);
        assert_eq!(lookup("OVH").unwrap().number, 16276);
    }

    #[test]
    fn lookups() {
        let d = WhoisDirectory;
        assert!(d.by_name("NOPE").is_none());
        assert!(!d.is_empty());
        assert_eq!(d.len(), DIRECTORY.len());
    }

    #[test]
    fn directory_fits_prefix_allocation() {
        // prefix.rs packs the directory index into one octet.
        assert!(DIRECTORY.len() <= 256);
    }
}
