//! Built-in backend interfaces (paper Fig. 2 and Tab. 2).
//!
//! Blueprint offers generalized interfaces for each kind of backend so that
//! backend instances "can be opaquely reconfigured" (§6.6). The interfaces
//! here are deliberately narrow — that is the point of Tab. 2 — and the
//! `extended` cache interface reproduces the §6.6 cost-of-abstraction study
//! (specialized Redis array operations).

use blueprint_ir::types::{MethodSig, Param, TypeRef};

use crate::interface::ServiceInterface;

/// The kinds of backend Blueprint ships interfaces for (paper Tab. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// Key-value cache (memcached, Redis).
    Cache,
    /// Document / NoSQL database (MongoDB).
    NoSqlDb,
    /// Relational database (MySQL).
    RelDb,
    /// Message queue (RabbitMQ).
    Queue,
    /// Distributed tracer (Jaeger, Zipkin, X-Trace).
    Tracer,
}

impl BackendKind {
    /// All backend kinds.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Cache,
        BackendKind::NoSqlDb,
        BackendKind::RelDb,
        BackendKind::Queue,
        BackendKind::Tracer,
    ];

    /// Stable lowercase name used in IR node kinds (`backend.cache.redis`).
    pub fn tag(self) -> &'static str {
        match self {
            BackendKind::Cache => "cache",
            BackendKind::NoSqlDb => "nosql",
            BackendKind::RelDb => "reldb",
            BackendKind::Queue => "queue",
            BackendKind::Tracer => "tracer",
        }
    }

    /// The generalized interface for this backend kind.
    pub fn interface(self) -> ServiceInterface {
        match self {
            BackendKind::Cache => cache_interface(),
            BackendKind::NoSqlDb => nosql_interface(),
            BackendKind::RelDb => reldb_interface(),
            BackendKind::Queue => queue_interface(),
            BackendKind::Tracer => tracer_interface(),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// The generic cache interface (paper Fig. 2): `Put`/`Get` over raw bytes,
/// plus the operational methods used by experiments (`Delete`, `Flush`).
pub fn cache_interface() -> ServiceInterface {
    ServiceInterface::new(
        "Cache",
        vec![
            MethodSig::new(
                "Put",
                vec![
                    Param::new("key", TypeRef::Bytes),
                    Param::new("value", TypeRef::Bytes),
                ],
                TypeRef::Unit,
            ),
            MethodSig::new(
                "Get",
                vec![Param::new("key", TypeRef::Bytes)],
                TypeRef::Bytes,
            ),
            MethodSig::new(
                "Delete",
                vec![Param::new("key", TypeRef::Bytes)],
                TypeRef::Unit,
            ),
            MethodSig::new("Flush", vec![], TypeRef::Unit),
        ],
    )
}

/// The extended cache interface of §6.6: exposes specialized array
/// operations (modeled on Redis `LRANGE`/`LPUSH`) that fetch or update many
/// elements in one round trip. Using it trades reconfigurability for a ~33%
/// throughput gain in the Fig. 12 experiment.
pub fn extended_cache_interface() -> ServiceInterface {
    let mut iface = cache_interface();
    iface.name = "ExtendedCache".into();
    iface.methods.push(MethodSig::new(
        "GetRange",
        vec![
            Param::new("key", TypeRef::Bytes),
            Param::new("start", TypeRef::I64),
            Param::new("stop", TypeRef::I64),
        ],
        TypeRef::List(Box::new(TypeRef::Bytes)),
    ));
    iface.methods.push(MethodSig::new(
        "PushFront",
        vec![
            Param::new("key", TypeRef::Bytes),
            Param::new("values", TypeRef::List(Box::new(TypeRef::Bytes))),
        ],
        TypeRef::Unit,
    ));
    iface
}

/// Generalized NoSQL/document database interface (MongoDB-flavored).
pub fn nosql_interface() -> ServiceInterface {
    let doc = TypeRef::Map(Box::new(TypeRef::Bytes));
    ServiceInterface::new(
        "NoSQLDB",
        vec![
            MethodSig::new(
                "InsertOne",
                vec![
                    Param::new("collection", TypeRef::Str),
                    Param::new("doc", doc.clone()),
                ],
                TypeRef::Unit,
            ),
            MethodSig::new(
                "FindOne",
                vec![
                    Param::new("collection", TypeRef::Str),
                    Param::new("filter", doc.clone()),
                ],
                doc.clone(),
            ),
            MethodSig::new(
                "FindMany",
                vec![
                    Param::new("collection", TypeRef::Str),
                    Param::new("filter", doc.clone()),
                ],
                TypeRef::List(Box::new(doc.clone())),
            ),
            MethodSig::new(
                "UpdateOne",
                vec![
                    Param::new("collection", TypeRef::Str),
                    Param::new("filter", doc.clone()),
                    Param::new("update", doc.clone()),
                ],
                TypeRef::Unit,
            ),
            MethodSig::new(
                "DeleteOne",
                vec![
                    Param::new("collection", TypeRef::Str),
                    Param::new("filter", doc),
                ],
                TypeRef::Unit,
            ),
        ],
    )
}

/// Generalized relational database interface (MySQL-flavored).
pub fn reldb_interface() -> ServiceInterface {
    let row = TypeRef::Map(Box::new(TypeRef::Bytes));
    ServiceInterface::new(
        "RelDB",
        vec![
            MethodSig::new(
                "Query",
                vec![
                    Param::new("sql", TypeRef::Str),
                    Param::new("args", TypeRef::List(Box::new(TypeRef::Bytes))),
                ],
                TypeRef::List(Box::new(row)),
            ),
            MethodSig::new(
                "Exec",
                vec![
                    Param::new("sql", TypeRef::Str),
                    Param::new("args", TypeRef::List(Box::new(TypeRef::Bytes))),
                ],
                TypeRef::I64,
            ),
            MethodSig::new("Begin", vec![], TypeRef::I64),
            MethodSig::new(
                "Commit",
                vec![Param::new("tx", TypeRef::I64)],
                TypeRef::Unit,
            ),
            MethodSig::new(
                "Rollback",
                vec![Param::new("tx", TypeRef::I64)],
                TypeRef::Unit,
            ),
        ],
    )
}

/// Generalized message queue interface (RabbitMQ-flavored).
pub fn queue_interface() -> ServiceInterface {
    ServiceInterface::new(
        "Queue",
        vec![
            MethodSig::new(
                "Send",
                vec![
                    Param::new("topic", TypeRef::Str),
                    Param::new("msg", TypeRef::Bytes),
                ],
                TypeRef::Unit,
            ),
            MethodSig::new(
                "Recv",
                vec![Param::new("topic", TypeRef::Str)],
                TypeRef::Bytes,
            ),
        ],
    )
}

/// Generalized tracer interface (OpenTelemetry-flavored).
pub fn tracer_interface() -> ServiceInterface {
    ServiceInterface::new(
        "Tracer",
        vec![
            MethodSig::new(
                "StartSpan",
                vec![
                    Param::new("name", TypeRef::Str),
                    Param::new("parent", TypeRef::Bytes),
                ],
                TypeRef::Bytes,
            ),
            MethodSig::new(
                "EndSpan",
                vec![Param::new("span", TypeRef::Bytes)],
                TypeRef::Unit,
            ),
            MethodSig::new(
                "RecordError",
                vec![
                    Param::new("span", TypeRef::Bytes),
                    Param::new("msg", TypeRef::Str),
                ],
                TypeRef::Unit,
            ),
            MethodSig::new(
                "Extract",
                vec![Param::new("carrier", TypeRef::Bytes)],
                TypeRef::Bytes,
            ),
            MethodSig::new(
                "Inject",
                vec![Param::new("span", TypeRef::Bytes)],
                TypeRef::Bytes,
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_an_interface() {
        for k in BackendKind::ALL {
            let iface = k.interface();
            assert!(!iface.methods.is_empty(), "{k} interface empty");
        }
    }

    #[test]
    fn cache_interface_matches_fig2() {
        let c = cache_interface();
        assert!(c.has_method("Put"));
        assert!(c.has_method("Get"));
        assert!(c.has_method("Flush"));
    }

    #[test]
    fn extended_cache_adds_array_ops() {
        let e = extended_cache_interface();
        assert!(e.has_method("GetRange"));
        assert!(e.has_method("PushFront"));
        assert!(e.has_method("Get"), "extended interface is a superset");
        assert!(e.methods.len() > cache_interface().methods.len());
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(BackendKind::Cache.tag(), "cache");
        assert_eq!(BackendKind::NoSqlDb.tag(), "nosql");
        assert_eq!(BackendKind::RelDb.tag(), "reldb");
        assert_eq!(BackendKind::Queue.tag(), "queue");
        assert_eq!(BackendKind::Tracer.tag(), "tracer");
        assert_eq!(BackendKind::Queue.to_string(), "queue");
    }

    #[test]
    fn nosql_has_crud() {
        let n = nosql_interface();
        for m in ["InsertOne", "FindOne", "FindMany", "UpdateOne", "DeleteOne"] {
            assert!(n.has_method(m), "missing {m}");
        }
    }
}
