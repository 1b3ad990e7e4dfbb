//! A map keyed by [`MethodId`], stored as a vector of slots indexed by the
//! id: lookups on the activation path are one bounds check, and iteration
//! is in id order. Slots are grown on insert, so a machine that never
//! compiles never allocates one.

use incline_ir::MethodId;

#[derive(Clone, Debug)]
pub(crate) struct MethodMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for MethodMap<T> {
    fn default() -> Self {
        MethodMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> MethodMap<T> {
    #[inline]
    pub fn get(&self, m: MethodId) -> Option<&T> {
        self.slots.get(m.index()).and_then(Option::as_ref)
    }

    #[inline]
    pub fn get_mut(&mut self, m: MethodId) -> Option<&mut T> {
        self.slots.get_mut(m.index()).and_then(Option::as_mut)
    }

    #[inline]
    pub fn contains(&self, m: MethodId) -> bool {
        self.get(m).is_some()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value` under `m`, returning what was there.
    pub fn insert(&mut self, m: MethodId, value: T) -> Option<T> {
        if m.index() >= self.slots.len() {
            self.slots.resize_with(m.index() + 1, || None);
        }
        let old = self.slots[m.index()].replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    pub fn remove(&mut self, m: MethodId) -> Option<T> {
        let old = self.slots.get_mut(m.index()).and_then(Option::take);
        self.len -= usize::from(old.is_some());
        old
    }

    /// The value under `m`, inserted as the default first if absent.
    pub fn get_or_default(&mut self, m: MethodId) -> &mut T
    where
        T: Default,
    {
        if !self.contains(m) {
            self.insert(m, T::default());
        }
        self.get_mut(m).expect("just inserted")
    }

    /// Entries in [`MethodId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (MethodId::new(i), v)))
    }

    /// Keys in [`MethodId`] order.
    pub fn keys(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.iter().map(|(m, _)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_and_ordered_iteration() {
        let mut map: MethodMap<u32> = MethodMap::default();
        assert!(map.is_empty());
        assert_eq!(map.insert(MethodId::new(5), 50), None);
        assert_eq!(map.insert(MethodId::new(1), 10), None);
        assert_eq!(map.insert(MethodId::new(5), 51), Some(50));
        *map.get_or_default(MethodId::new(3)) += 7;
        let seen: Vec<(usize, u32)> = map.iter().map(|(m, &v)| (m.index(), v)).collect();
        assert_eq!(seen, vec![(1, 10), (3, 7), (5, 51)]);
        assert!(!map.contains(MethodId::new(4)));
        assert!(!map.contains(MethodId::new(99)));
        assert_eq!(map.remove(MethodId::new(1)), Some(10));
        assert_eq!(map.remove(MethodId::new(1)), None);
        assert_eq!(map.remove(MethodId::new(99)), None);
        assert_eq!(map.keys().count(), 2);
        map.remove(MethodId::new(3));
        map.remove(MethodId::new(5));
        assert!(map.is_empty());
    }
}
