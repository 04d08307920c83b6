//! Typed property bags for IR nodes and edges.
//!
//! Plugins attach configuration to the nodes they create (timeout durations,
//! replica counts, image names, client pool sizes...). A small self-describing
//! value type keeps the IR serializable and diffable without every plugin
//! defining its own node struct.

use std::collections::BTreeMap;

/// A single property value.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer (counts, ports, byte sizes).
    Int(i64),
    /// Floating point (rates, probabilities).
    Float(f64),
    /// String (names, addresses, image tags).
    Str(String),
    /// Homogeneous-or-not list of values.
    List(Vec<PropValue>),
}

impl From<bool> for PropValue {
    fn from(v: bool) -> Self {
        PropValue::Bool(v)
    }
}
impl From<i64> for PropValue {
    fn from(v: i64) -> Self {
        PropValue::Int(v)
    }
}
impl From<u64> for PropValue {
    fn from(v: u64) -> Self {
        PropValue::Int(v as i64)
    }
}
impl From<usize> for PropValue {
    fn from(v: usize) -> Self {
        PropValue::Int(v as i64)
    }
}
impl From<f64> for PropValue {
    fn from(v: f64) -> Self {
        PropValue::Float(v)
    }
}
impl From<&str> for PropValue {
    fn from(v: &str) -> Self {
        PropValue::Str(v.to_string())
    }
}
impl From<String> for PropValue {
    fn from(v: String) -> Self {
        PropValue::Str(v)
    }
}

/// An ordered map of property names to values.
///
/// Ordering (BTreeMap) keeps serialized artifacts and DOT dumps deterministic,
/// which the generation-time benchmarks and golden tests rely on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Props(BTreeMap<String, PropValue>);

impl Props {
    /// Creates an empty property bag.
    pub fn new() -> Self {
        Props(BTreeMap::new())
    }

    /// Inserts or replaces a property.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<PropValue>) -> &mut Self {
        self.0.insert(key.into(), value.into());
        self
    }

    /// Returns the raw value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&PropValue> {
        self.0.get(key)
    }

    /// Removes a property, returning its previous value.
    pub fn remove(&mut self, key: &str) -> Option<PropValue> {
        self.0.remove(key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Typed accessor: integer property.
    pub fn int(&self, key: &str) -> Option<i64> {
        match self.0.get(key) {
            Some(PropValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Typed accessor: integer property with a default.
    pub fn int_or(&self, key: &str, default: i64) -> i64 {
        self.int(key).unwrap_or(default)
    }

    /// Typed accessor: float property (integers coerce).
    pub fn float(&self, key: &str) -> Option<f64> {
        match self.0.get(key) {
            Some(PropValue::Float(v)) => Some(*v),
            Some(PropValue::Int(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// Typed accessor: float property with a default.
    pub fn float_or(&self, key: &str, default: f64) -> f64 {
        self.float(key).unwrap_or(default)
    }

    /// Typed accessor: boolean property.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.0.get(key) {
            Some(PropValue::Bool(v)) => Some(*v),
            _ => None,
        }
    }

    /// Typed accessor: boolean property with a default.
    pub fn bool_or(&self, key: &str, default: bool) -> bool {
        self.bool(key).unwrap_or(default)
    }

    /// Typed accessor: string property.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.0.get(key) {
            Some(PropValue::Str(v)) => Some(v.as_str()),
            _ => None,
        }
    }

    /// Typed accessor: list of strings (non-string elements are skipped).
    pub fn str_list(&self, key: &str) -> Vec<&str> {
        match self.0.get(key) {
            Some(PropValue::List(items)) => items
                .iter()
                .filter_map(|v| match v {
                    PropValue::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropValue)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, PropValue)> for Props {
    fn from_iter<T: IntoIterator<Item = (String, PropValue)>>(iter: T) -> Self {
        Props(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_typed() {
        let mut p = Props::new();
        p.set("timeout_ms", 500i64)
            .set("rate", 0.75)
            .set("enabled", true)
            .set("image", "memcached:1.6");
        assert_eq!(p.int("timeout_ms"), Some(500));
        assert_eq!(p.float("rate"), Some(0.75));
        assert_eq!(p.bool("enabled"), Some(true));
        assert_eq!(p.str("image"), Some("memcached:1.6"));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn int_coerces_to_float_but_not_vice_versa() {
        let mut p = Props::new();
        p.set("n", 3i64);
        p.set("x", 1.5);
        assert_eq!(p.float("n"), Some(3.0));
        assert_eq!(p.int("x"), None);
    }

    #[test]
    fn defaults() {
        let p = Props::new();
        assert_eq!(p.int_or("missing", 7), 7);
        assert_eq!(p.float_or("missing", 0.5), 0.5);
        assert!(p.bool_or("missing", true));
    }

    #[test]
    fn str_list_filters_non_strings() {
        let mut p = Props::new();
        p.set(
            "mods",
            PropValue::List(vec![
                PropValue::Str("grpc".into()),
                PropValue::Int(3),
                PropValue::Str("docker".into()),
            ]),
        );
        assert_eq!(p.str_list("mods"), vec!["grpc", "docker"]);
        assert!(p.str_list("missing").is_empty());
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut p = Props::new();
        p.set("z", 1i64).set("a", 2i64).set("m", 3i64);
        let keys: Vec<&str> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }

    #[test]
    fn remove_and_contains() {
        let mut p = Props::new();
        p.set("k", 1i64);
        assert!(p.contains("k"));
        assert_eq!(p.remove("k"), Some(PropValue::Int(1)));
        assert!(!p.contains("k"));
    }
}
