//! The front page.
//!
//! Promoted stories are listed newest-promotion first, 15 to a page.
//! Unlike the upcoming queue, front-page stories do not expire — they
//! simply sink to deeper pages as newer promotions arrive, which is
//! how attention (and hence vote rate) decays with age in addition to
//! novelty decay.

use crate::story::StoryId;
use crate::time::Minute;

/// Reverse-promotion-order listing of promoted stories.
#[derive(Debug, Clone, Default)]
pub struct FrontPage {
    /// Newest promotion first.
    entries: Vec<(StoryId, Minute)>,
    page_size: usize,
}

impl FrontPage {
    /// Create a front page with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size == 0`.
    pub fn new(page_size: usize) -> FrontPage {
        assert!(page_size > 0, "page size must be positive");
        FrontPage {
            entries: Vec::new(),
            page_size,
        }
    }

    /// Record a promotion (must be the newest so far).
    pub fn promote(&mut self, id: StoryId, at: Minute) {
        debug_assert!(
            self.entries.first().map(|&(_, t)| t <= at).unwrap_or(true),
            "promotions must arrive in time order"
        );
        self.entries.insert(0, (id, at));
    }

    /// Total promoted stories.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been promoted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stories on page `p` (0-based), newest first, borrowed from the
    /// listing (empty past the last page).
    pub fn page(&self, p: usize) -> impl Iterator<Item = StoryId> + '_ {
        let start = p.saturating_mul(self.page_size).min(self.entries.len());
        let end = start.saturating_add(self.page_size).min(self.entries.len());
        self.entries[start..end].iter().map(|&(id, _)| id)
    }

    /// Number of (possibly partial) pages.
    pub fn page_count(&self) -> usize {
        self.entries.len().div_ceil(self.page_size)
    }

    /// The most recently promoted `k` stories (the scraper's "roughly
    /// 200 of the most recently promoted stories").
    pub fn most_recent(&self, k: usize) -> Vec<StoryId> {
        self.entries.iter().take(k).map(|&(id, _)| id).collect()
    }

    /// All promoted stories with promotion times, newest first.
    pub fn all(&self) -> &[(StoryId, Minute)] {
        &self.entries
    }

    /// Snapshot support: rebuild a front page from captured entries
    /// (newest promotion first); `page_size` comes from the restored
    /// configuration rather than the snapshot.
    pub(crate) fn from_snapshot(page_size: usize, entries: Vec<(StoryId, Minute)>) -> FrontPage {
        let mut fp = FrontPage::new(page_size);
        fp.entries = entries;
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_order() {
        let mut fp = FrontPage::new(2);
        fp.promote(StoryId(4), Minute(10));
        fp.promote(StoryId(9), Minute(20));
        fp.promote(StoryId(2), Minute(30));
        assert_eq!(fp.page(0).collect::<Vec<_>>(), vec![StoryId(2), StoryId(9)]);
        assert_eq!(fp.page(1).collect::<Vec<_>>(), vec![StoryId(4)]);
        assert_eq!(fp.page(2).count(), 0);
        assert_eq!(fp.page_count(), 2);
        assert_eq!(fp.len(), 3);
        assert!(!fp.is_empty());
    }

    #[test]
    fn most_recent_truncates() {
        let mut fp = FrontPage::new(15);
        for i in 0..5 {
            fp.promote(StoryId(i), Minute(i as u64));
        }
        assert_eq!(fp.most_recent(2), vec![StoryId(4), StoryId(3)]);
        assert_eq!(fp.most_recent(100).len(), 5);
    }

    #[test]
    fn empty_page_is_empty() {
        let fp = FrontPage::new(15);
        assert_eq!(fp.page(0).count(), 0);
        assert_eq!(fp.page_count(), 0);
    }
}
