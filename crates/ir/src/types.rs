//! Method signature and type model shared by workflow specs and IR edges.
//!
//! RPC edges in the IR "declare the method signatures of the invocations"
//! (paper §4.2). Plugins consume these signatures to generate wrapper classes,
//! protobuf/Thrift IDL, and client stubs, so the signature model must be rich
//! enough to render each of those artifact flavors.

/// A reference to a (possibly composite) type in a workflow spec.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// Unit / no value.
    Unit,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    I64,
    /// 64-bit float.
    F64,
    /// UTF-8 string.
    Str,
    /// Raw bytes.
    Bytes,
    /// Homogeneous list.
    List(Box<TypeRef>),
    /// String-keyed map.
    Map(Box<TypeRef>),
    /// A named struct declared in the workflow spec (e.g. `Post`).
    Named(String),
}

impl TypeRef {
    /// Renders the type as Rust surface syntax (used by the code generators).
    pub fn rust(&self) -> String {
        match self {
            TypeRef::Unit => "()".into(),
            TypeRef::Bool => "bool".into(),
            TypeRef::I64 => "i64".into(),
            TypeRef::F64 => "f64".into(),
            TypeRef::Str => "String".into(),
            TypeRef::Bytes => "Vec<u8>".into(),
            TypeRef::List(t) => format!("Vec<{}>", t.rust()),
            TypeRef::Map(t) => format!("HashMap<String, {}>", t.rust()),
            TypeRef::Named(n) => n.clone(),
        }
    }

    /// Renders the type as protobuf surface syntax (used by the gRPC plugin).
    pub fn proto(&self) -> String {
        match self {
            TypeRef::Unit => "google.protobuf.Empty".into(),
            TypeRef::Bool => "bool".into(),
            TypeRef::I64 => "int64".into(),
            TypeRef::F64 => "double".into(),
            TypeRef::Str => "string".into(),
            TypeRef::Bytes => "bytes".into(),
            TypeRef::List(t) => format!("repeated {}", t.proto()),
            TypeRef::Map(t) => format!("map<string, {}>", t.proto()),
            TypeRef::Named(n) => n.clone(),
        }
    }

    /// Renders the type as Thrift IDL surface syntax (used by the Thrift plugin).
    pub fn thrift(&self) -> String {
        match self {
            TypeRef::Unit => "void".into(),
            TypeRef::Bool => "bool".into(),
            TypeRef::I64 => "i64".into(),
            TypeRef::F64 => "double".into(),
            TypeRef::Str => "string".into(),
            TypeRef::Bytes => "binary".into(),
            TypeRef::List(t) => format!("list<{}>", t.thrift()),
            TypeRef::Map(t) => format!("map<string, {}>", t.thrift()),
            TypeRef::Named(n) => n.clone(),
        }
    }
}

/// A named, typed method parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: TypeRef,
}

impl Param {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: TypeRef) -> Self {
        Param {
            name: name.into(),
            ty,
        }
    }
}

/// A typed method signature of a service or backend interface.
///
/// All Blueprint methods implicitly take a request context and return
/// `Result<ret, Error>`; the context and error channel are how scaffolding
/// (tracing metadata, RPC failures, timeouts) is threaded through without the
/// workflow spec binding to any particular instantiation (paper §4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MethodSig {
    /// Method name, e.g. `"ComposePost"`.
    pub name: String,
    /// Ordered parameters.
    pub params: Vec<Param>,
    /// Return type.
    pub ret: TypeRef,
    /// Whether repeating this call is observably equivalent to making it
    /// once. Defaults to `false` — the conservative assumption — so a
    /// workflow author must opt a method in before retry scaffolding on its
    /// edges is considered safe (the `retry-non-idempotent` lint keys on
    /// this).
    pub idempotent: bool,
}

impl MethodSig {
    /// Convenience constructor. Methods start non-idempotent; mark safe
    /// ones with [`MethodSig::idempotent`].
    pub fn new(name: impl Into<String>, params: Vec<Param>, ret: TypeRef) -> Self {
        MethodSig {
            name: name.into(),
            params,
            ret,
            idempotent: false,
        }
    }

    /// Marks the method as safe to retry (builder style).
    pub fn idempotent(mut self) -> Self {
        self.idempotent = true;
        self
    }

    /// Renders a Rust trait-method signature, e.g.
    /// `fn compose_post(&self, ctx: &mut Ctx, req_id: i64) -> Result<(), Error>`.
    pub fn rust_decl(&self) -> String {
        let mut s = format!("fn {}(&self, ctx: &mut Ctx", snake_case(&self.name));
        for p in &self.params {
            s.push_str(&format!(", {}: {}", snake_case(&p.name), p.ty.rust()));
        }
        s.push_str(&format!(") -> Result<{}, Error>", self.ret.rust()));
        s
    }
}

/// Converts `CamelCase`/`mixedCase` identifiers to `snake_case`.
///
/// Shared by the Rust code generators; acronym runs collapse (`"RPCServer"`
/// becomes `"rpc_server"`).
pub fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    let chars: Vec<char> = name.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c.is_ascii_uppercase() {
            let prev_lower =
                i > 0 && (chars[i - 1].is_ascii_lowercase() || chars[i - 1].is_ascii_digit());
            let next_lower = chars.get(i + 1).is_some_and(|n| n.is_ascii_lowercase());
            if i > 0 && (prev_lower || (next_lower && chars[i - 1] != '_')) && !out.ends_with('_') {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Converts `snake_case`/`mixedCase` identifiers to `CamelCase`.
pub fn camel_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut upper_next = true;
    for c in name.chars() {
        if c == '_' || c == '-' {
            upper_next = true;
        } else if upper_next {
            out.push(c.to_ascii_uppercase());
            upper_next = false;
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_renderings() {
        let t = TypeRef::List(Box::new(TypeRef::I64));
        assert_eq!(t.rust(), "Vec<i64>");
        assert_eq!(t.proto(), "repeated int64");
        assert_eq!(t.thrift(), "list<i64>");
        let m = TypeRef::Map(Box::new(TypeRef::Str));
        assert_eq!(m.rust(), "HashMap<String, String>");
        assert_eq!(m.proto(), "map<string, string>");
        assert_eq!(m.thrift(), "map<string, string>");
        assert_eq!(TypeRef::Named("Post".into()).rust(), "Post");
        assert_eq!(TypeRef::Unit.thrift(), "void");
        assert_eq!(TypeRef::Bytes.proto(), "bytes");
    }

    #[test]
    fn snake_case_handles_acronyms() {
        assert_eq!(snake_case("ComposePost"), "compose_post");
        assert_eq!(snake_case("RPCServer"), "rpc_server");
        assert_eq!(snake_case("readHomeTimeline"), "read_home_timeline");
        assert_eq!(snake_case("UserID"), "user_id");
        assert_eq!(snake_case("already_snake"), "already_snake");
        assert_eq!(snake_case("HTTPServer2"), "http_server2");
    }

    #[test]
    fn camel_case_roundtrips_simple_names() {
        assert_eq!(camel_case("compose_post"), "ComposePost");
        assert_eq!(camel_case("user-service"), "UserService");
        assert_eq!(camel_case("Already"), "Already");
    }

    #[test]
    fn idempotency_defaults_conservative() {
        let m = MethodSig::new("ReadPost", vec![], TypeRef::Unit);
        assert!(!m.idempotent, "methods must default to non-idempotent");
        assert!(m.clone().idempotent().idempotent);
    }

    #[test]
    fn rust_decl_renders() {
        let m = MethodSig::new(
            "ComposePost",
            vec![
                Param::new("reqID", TypeRef::I64),
                Param::new("text", TypeRef::Str),
            ],
            TypeRef::Unit,
        );
        assert_eq!(
            m.rust_decl(),
            "fn compose_post(&self, ctx: &mut Ctx, req_id: i64, text: String) -> Result<(), Error>"
        );
    }
}
