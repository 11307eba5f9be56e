//! Series names in registration order, found again by text.

use mpichgq_sim::FxHashMap;
use std::sync::Arc;

/// Names registered in order: a name's index is its registration rank,
/// and the list and the map share one allocation of its text.
#[derive(Debug, Default)]
pub(crate) struct Names {
    list: Vec<Arc<str>>,
    ids: FxHashMap<Arc<str>, u32>,
}

impl Names {
    /// The index of `name`, if registered.
    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.ids.get(name).map(|&i| i as usize)
    }

    /// The index of `name`, and whether this call registered it.
    pub(crate) fn intern(&mut self, name: &str) -> (usize, bool) {
        if let Some(i) = self.get(name) {
            return (i, false);
        }
        let i = self.list.len();
        let name: Arc<str> = Arc::from(name);
        self.ids.insert(Arc::clone(&name), i as u32);
        self.list.push(name);
        (i, true)
    }

    /// Forget every name's key (not its index): a test's proof that a
    /// lookup by position never consulted the map.
    #[cfg(test)]
    pub(crate) fn forget(&mut self) {
        self.ids.clear();
    }

    /// The name at index `i`.
    pub(crate) fn at(&self, i: usize) -> &str {
        &self.list[i]
    }

    /// Names in registration order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.list.iter().map(|n| &**n)
    }

    /// Indices in name order: what every JSON writer emits.
    pub(crate) fn sorted(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.list.len()).collect();
        order.sort_by(|&a, &b| self.list[a].cmp(&self.list[b]));
        order
    }
}
