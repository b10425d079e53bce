//! The simulated web estate.
//!
//! Thirty-six institution sites (paper §3.1: IT department, campus dining,
//! a personnel directory, …). Each site owns a deterministic page
//! inventory including the path families the experiment's robots.txt
//! files regulate: `/page-data/*` (the endpoint v2 allows), `/404`,
//! `/dev-404-page` and `/secure/*` (restricted by every version), and
//! ordinary content pages. Site 0 is the high-traffic experiment site;
//! site 1 is the people directory YisouSpider hammered (paper §3.2).

/// A page's broad class, used by bots to bias their crawl mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// The site root and top-level navigation pages.
    Landing,
    /// Ordinary content (news, events, department pages).
    Content,
    /// Person profile pages (the directory site has thousands).
    Directory,
    /// Gatsby-style `/page-data/*.json` assets — "a common target for
    /// scrapers" (paper §4.1).
    PageData,
    /// Paths the base robots.txt restricts (`/404`, `/dev-404-page`,
    /// `/secure/*`).
    Restricted,
}

/// One page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// URI path.
    pub path: String,
    /// Class.
    pub kind: PageKind,
    /// Nominal transfer size in bytes.
    pub bytes: u64,
    /// Position in its site's `pages`.
    pub index: usize,
}

/// One site with its inventory.
#[derive(Debug, Clone)]
pub struct Site {
    /// Hostname, `site-NN.example.edu`.
    pub name: String,
    /// Index in the estate.
    pub index: usize,
    /// Page inventory.
    pub pages: Vec<Page>,
}

// Re-exported because botbench imports it from this path.
pub use botscope_study::EXPERIMENT_SITE;
/// Index of the people-directory site.
pub const DIRECTORY_SITE: usize = 1;

impl Site {
    /// Deterministically build site `index` of `total`.
    pub fn build(index: usize, _total: usize) -> Site {
        let name = botscope_study::site_name(index);
        let mut pages: Vec<Page> = Vec::new();
        let mut page = |path: String, kind, bytes| {
            pages.push(Page { path, kind, bytes, index: pages.len() });
        };

        page("/".into(), PageKind::Landing, 18_000);
        page("/about".into(), PageKind::Landing, 12_000);
        page("/contact".into(), PageKind::Landing, 9_000);

        // Content volume varies by site; the experiment site is rich.
        let content_pages = match index {
            EXPERIMENT_SITE => 120,
            DIRECTORY_SITE => 30,
            _ => 20 + (index * 7) % 40,
        };
        for i in 0..content_pages {
            let (family, bytes) = match i % 3 {
                0 => ("news", 26_000),
                1 => ("events", 14_000),
                _ => ("programs", 31_000),
            };
            page(format!("/{family}/item-{i:03}"), PageKind::Content, bytes);
        }

        // The directory site carries a large people directory; every site
        // has a small one.
        let people = if index == DIRECTORY_SITE { 400 } else { 12 };
        for i in 0..people {
            page(format!("/people/person-{i:04}"), PageKind::Directory, 22_000);
        }

        // Gatsby page-data mirrors of the content pages.
        let page_data = content_pages.min(60);
        for i in 0..page_data {
            page(format!("/page-data/item-{i:03}/page-data.json"), PageKind::PageData, 4_500);
        }
        page("/page-data/index/page-data.json".into(), PageKind::PageData, 3_000);

        // Restricted paths from the base robots.txt (Figure 5).
        page("/404".into(), PageKind::Restricted, 2_000);
        page("/dev-404-page".into(), PageKind::Restricted, 2_000);
        for i in 0..4 {
            page(format!("/secure/admin-{i}"), PageKind::Restricted, 5_000);
        }

        Site { name, index, pages }
    }

    /// Build the whole estate.
    pub fn estate(total: usize) -> Vec<Site> {
        (0..total).map(|i| Site::build(i, total)).collect()
    }

    /// Pages that are *not* restricted (the legitimate crawl surface).
    pub fn crawlable(&self) -> Vec<&Page> {
        self.pages.iter().filter(|p| p.kind != PageKind::Restricted).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estate_shape() {
        let estate = Site::estate(36);
        assert_eq!(estate.len(), 36);
        assert_eq!(estate[0].name, "site-00.example.edu");
        assert_eq!(estate[35].name, "site-35.example.edu");
    }

    #[test]
    fn determinism() {
        let a = Site::build(5, 36);
        let b = Site::build(5, 36);
        assert_eq!(a.pages, b.pages);
    }

    #[test]
    fn directory_site_is_people_heavy() {
        let estate = Site::estate(36);
        let people =
            |site: &Site| site.pages.iter().filter(|p| p.kind == PageKind::Directory).count();
        let (dir_people, other_people) = (people(&estate[DIRECTORY_SITE]), people(&estate[3]));
        assert!(dir_people > 10 * other_people);
    }

    #[test]
    fn every_site_has_the_regulated_paths() {
        for site in Site::estate(36) {
            assert!(site.pages.iter().any(|p| p.path == "/404"));
            assert!(site.pages.iter().any(|p| p.path == "/dev-404-page"));
            assert!(site.pages.iter().any(|p| p.path.starts_with("/secure/")));
            assert!(site.pages.iter().any(|p| p.kind == PageKind::PageData));
        }
    }

    #[test]
    fn crawlable_excludes_restricted() {
        let site = Site::build(0, 36);
        assert!(site.crawlable().iter().all(|p| p.kind != PageKind::Restricted));
        assert!(site.crawlable().len() < site.pages.len());
    }

    #[test]
    fn experiment_site_is_rich() {
        let estate = Site::estate(36);
        let exp = estate[EXPERIMENT_SITE].pages.len();
        assert!(exp > estate[20].pages.len());
    }
}
