//! XML extension: a document store with path queries.
//!
//! Paper §3.1: "Extension Services allow users to design tailored
//! extensions to manage different data types, such as XML files". The
//! parser covers the useful core (elements, attributes, text, comments,
//! declarations, entity escapes); documents persist in a heap file so the
//! extension exercises the same storage substrate as relational data.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sbdms_access::heap::{HeapFile, Rid};
use sbdms_kernel::contract::{Contract, Quality};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::interface::{Interface, Operation, Param};
use sbdms_kernel::service::{unknown_op, Descriptor, Service, ServiceRef};
use sbdms_kernel::value::{TypeTag, Value};
use sbdms_storage::buffer::BufferPool;

fn err(msg: impl Into<String>) -> ServiceError {
    ServiceError::InvalidInput(format!("xml: {}", msg.into()))
}

/// One parsed XML element.
#[derive(Debug, Clone, PartialEq)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements.
    pub children: Vec<XmlElement>,
    /// Concatenated direct text content.
    pub text: String,
}

impl XmlElement {
    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Direct children with a tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }
}

/// Parse an XML document, returning the root element.
pub fn parse_xml(input: &str) -> Result<XmlElement> {
    let mut p = XmlParser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_misc()?;
    let root = p.element()?;
    p.skip_misc()?;
    if p.pos != p.input.len() {
        return Err(err("trailing content after root element"));
    }
    Ok(root)
}

struct XmlParser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, XML declarations, and comments.
    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                let end = self.find("?>")?;
                self.pos = end + 2;
            } else if self.starts_with("<!--") {
                let end = self.find("-->")?;
                self.pos = end + 3;
            } else {
                return Ok(());
            }
        }
    }

    fn find(&self, needle: &str) -> Result<usize> {
        let hay = &self.input[self.pos..];
        hay.windows(needle.len())
            .position(|w| w == needle.as_bytes())
            .map(|i| self.pos + i)
            .ok_or_else(|| err(format!("expected `{needle}`")))
    }

    fn name(&mut self) -> Result<String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b':' || c == b'.'
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| err("invalid utf8 in name"))?
            .to_string())
    }

    fn element(&mut self) -> Result<XmlElement> {
        if self.peek() != Some(b'<') {
            return Err(err("expected `<`"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut element = XmlElement {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        };
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(err("expected `>` after `/`"));
                    }
                    self.pos += 1;
                    return Ok(element); // self-closing
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(err(format!("expected `=` after attribute `{key}`")));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek().ok_or_else(|| err("unterminated attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(err("attribute value must be quoted"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek() != Some(quote) {
                        if self.peek().is_none() {
                            return Err(err("unterminated attribute value"));
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| err("invalid utf8 in attribute"))?;
                    self.pos += 1;
                    element.attributes.push((key, unescape(raw)));
                }
                None => return Err(err("unterminated start tag")),
            }
        }
        // Content.
        loop {
            match self.peek() {
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.pos += 2;
                        let close = self.name()?;
                        if close != element.name {
                            return Err(err(format!(
                                "mismatched close tag: expected </{}>, got </{close}>",
                                element.name
                            )));
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return Err(err("expected `>` in close tag"));
                        }
                        self.pos += 1;
                        return Ok(element);
                    } else if self.starts_with("<!--") {
                        let end = self.find("-->")?;
                        self.pos = end + 3;
                    } else {
                        element.children.push(self.element()?);
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'<') | None) {
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| err("invalid utf8 in text"))?;
                    let trimmed = raw.trim();
                    if !trimmed.is_empty() {
                        if !element.text.is_empty() {
                            element.text.push(' ');
                        }
                        element.text.push_str(&unescape(trimmed));
                    }
                }
                None => return Err(err(format!("unclosed element <{}>", element.name))),
            }
        }
    }
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Evaluate a slash path against a document. Steps are element names;
/// a final `@attr` step selects an attribute; `text()` selects text.
/// Returns every match (the path explores all children with each name).
pub fn eval_path(root: &XmlElement, path: &str) -> Result<Vec<String>> {
    let steps: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    if steps.is_empty() {
        return Err(err("empty path"));
    }
    // The first step must match the root element name.
    if steps[0] != root.name {
        return Ok(Vec::new());
    }
    let mut current: Vec<&XmlElement> = vec![root];
    for (i, step) in steps.iter().enumerate().skip(1) {
        if let Some(attr) = step.strip_prefix('@') {
            if i != steps.len() - 1 {
                return Err(err("@attribute must be the final step"));
            }
            return Ok(current
                .iter()
                .filter_map(|e| e.attr(attr).map(|v| v.to_string()))
                .collect());
        }
        if *step == "text()" {
            if i != steps.len() - 1 {
                return Err(err("text() must be the final step"));
            }
            return Ok(current
                .iter()
                .map(|e| e.text.clone())
                .filter(|t| !t.is_empty())
                .collect());
        }
        current = current
            .iter()
            .flat_map(|e| e.children_named(step))
            .collect();
    }
    Ok(current.iter().map(|e| e.text.clone()).collect())
}

/// A heap-backed XML document store.
pub struct XmlStore {
    heap: HeapFile,
    by_name: Mutex<HashMap<String, Rid>>,
}

impl XmlStore {
    /// Create a fresh store.
    pub fn create(buffer: Arc<BufferPool>) -> Result<XmlStore> {
        Ok(XmlStore {
            heap: HeapFile::create(buffer)?,
            by_name: Mutex::new(HashMap::new()),
        })
    }

    /// Open an existing store rooted at a heap directory page, rebuilding
    /// the name index.
    pub fn open(buffer: Arc<BufferPool>, dir_page: sbdms_storage::page::PageId) -> Result<XmlStore> {
        let heap = HeapFile::open(buffer, dir_page);
        let mut by_name = HashMap::new();
        for (rid, bytes) in heap.scan()? {
            let (name, _) = decode_doc(&bytes)?;
            by_name.insert(name, rid);
        }
        Ok(XmlStore {
            heap,
            by_name: Mutex::new(by_name),
        })
    }

    /// Root page for [`XmlStore::open`].
    pub fn dir_page(&self) -> sbdms_storage::page::PageId {
        self.heap.dir_page()
    }

    /// Store (or replace) a document after validating it parses.
    pub fn put(&self, name: &str, xml: &str) -> Result<()> {
        parse_xml(xml)?; // validate
        let record = encode_doc(name, xml);
        let mut by_name = self.by_name.lock();
        if let Some(old) = by_name.get(name) {
            self.heap.delete(*old)?;
        }
        let rid = self.heap.insert(&record)?;
        by_name.insert(name.to_string(), rid);
        Ok(())
    }

    /// Fetch a document's text.
    pub fn get(&self, name: &str) -> Result<String> {
        let rid = *self
            .by_name
            .lock()
            .get(name)
            .ok_or_else(|| err(format!("no document `{name}`")))?;
        let bytes = self.heap.get(rid)?;
        Ok(decode_doc(&bytes)?.1)
    }

    /// Evaluate a path query over a stored document.
    pub fn query(&self, name: &str, path: &str) -> Result<Vec<String>> {
        let doc = self.get(name)?;
        eval_path(&parse_xml(&doc)?, path)
    }

    /// Delete a document.
    pub fn remove(&self, name: &str) -> Result<()> {
        let rid = self
            .by_name
            .lock()
            .remove(name)
            .ok_or_else(|| err(format!("no document `{name}`")))?;
        self.heap.delete(rid)
    }

    /// Stored document names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.by_name.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

fn encode_doc(name: &str, xml: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + name.len() + xml.len());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(xml.as_bytes());
    out
}

fn decode_doc(bytes: &[u8]) -> Result<(String, String)> {
    if bytes.len() < 4 {
        return Err(ServiceError::Storage("corrupt xml record".into()));
    }
    let nlen = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let name = std::str::from_utf8(
        bytes
            .get(4..4 + nlen)
            .ok_or_else(|| ServiceError::Storage("corrupt xml record".into()))?,
    )
    .map_err(|_| ServiceError::Storage("corrupt xml record".into()))?;
    let xml = std::str::from_utf8(&bytes[4 + nlen..])
        .map_err(|_| ServiceError::Storage("corrupt xml record".into()))?;
    Ok((name.to_string(), xml.to_string()))
}

/// Interface name of the XML service.
pub const XML_INTERFACE: &str = "sbdms.extension.Xml";

/// The canonical XML interface.
pub fn xml_interface() -> Interface {
    Interface::new(
        XML_INTERFACE,
        1,
        vec![
            Operation::new(
                "put",
                vec![
                    Param::required("name", TypeTag::Str),
                    Param::required("xml", TypeTag::Str),
                ],
                TypeTag::Null,
            ),
            Operation::new(
                "get",
                vec![Param::required("name", TypeTag::Str)],
                TypeTag::Str,
            ),
            Operation::new(
                "query",
                vec![
                    Param::required("name", TypeTag::Str),
                    Param::required("path", TypeTag::Str),
                ],
                TypeTag::List,
            ),
            Operation::new(
                "remove",
                vec![Param::required("name", TypeTag::Str)],
                TypeTag::Null,
            ),
            Operation::new("list", vec![], TypeTag::List),
        ],
    )
}

/// The XML store published as an extension service.
pub struct XmlService {
    descriptor: Descriptor,
    store: XmlStore,
}

impl XmlService {
    /// Wrap a store.
    pub fn new(name: &str, store: XmlStore) -> XmlService {
        let contract = Contract::for_interface(xml_interface())
            .describe("XML document storage with path queries", "extension")
            .capability("task:xml")
            .depends_on(sbdms_storage::services::BUFFER_INTERFACE)
            .quality(Quality {
                expected_latency_ns: 30_000,
                footprint_bytes: 64 * 1024,
                ..Quality::default()
            });
        XmlService {
            descriptor: Descriptor::new(name, contract),
            store,
        }
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> ServiceRef {
        Arc::new(self)
    }
}

impl Service for XmlService {
    fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    fn invoke(&self, op: &str, input: Value) -> Result<Value> {
        match op {
            "put" => {
                self.store
                    .put(input.require("name")?.as_str()?, input.require("xml")?.as_str()?)?;
                Ok(Value::Null)
            }
            "get" => Ok(Value::Str(self.store.get(input.require("name")?.as_str()?)?)),
            "query" => {
                let hits = self.store.query(
                    input.require("name")?.as_str()?,
                    input.require("path")?.as_str()?,
                )?;
                Ok(Value::List(hits.into_iter().map(Value::Str).collect()))
            }
            "remove" => {
                self.store.remove(input.require("name")?.as_str()?)?;
                Ok(Value::Null)
            }
            "list" => Ok(Value::List(
                self.store.names().into_iter().map(Value::Str).collect(),
            )),
            other => Err(unknown_op(&self.descriptor, other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbdms_storage::services::StorageEngine;

    const CATALOG_DOC: &str = r#"<?xml version="1.0"?>
<!-- product catalog -->
<catalog>
  <product sku="A1" price="9.99">
    <name>Widget</name>
    <tags><tag>small</tag><tag>blue</tag></tags>
  </product>
  <product sku="B2" price="19.99">
    <name>Gadget &amp; Co</name>
    <tags><tag>large</tag></tags>
  </product>
</catalog>"#;

    #[test]
    fn parses_elements_attributes_text() {
        let root = parse_xml(CATALOG_DOC).unwrap();
        assert_eq!(root.name, "catalog");
        assert_eq!(root.children.len(), 2);
        let p = &root.children[0];
        assert_eq!(p.attr("sku"), Some("A1"));
        assert_eq!(p.children_named("name").next().unwrap().text, "Widget");
        // Entity unescaping.
        assert_eq!(
            root.children[1].children_named("name").next().unwrap().text,
            "Gadget & Co"
        );
    }

    #[test]
    fn self_closing_and_nested() {
        let root = parse_xml("<a><b/><c x='1'><d>deep</d></c></a>").unwrap();
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "b");
        assert_eq!(root.children[1].attr("x"), Some("1"));
        assert_eq!(root.children[1].children[0].text, "deep");
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(parse_xml("<a><b></a>").is_err(), "mismatched close");
        assert!(parse_xml("<a>").is_err(), "unclosed");
        assert!(parse_xml("<a attr=oops></a>").is_err(), "unquoted attr");
        assert!(parse_xml("<a></a><b></b>").is_err(), "two roots");
        assert!(parse_xml("just text").is_err());
    }

    #[test]
    fn path_queries() {
        let root = parse_xml(CATALOG_DOC).unwrap();
        assert_eq!(
            eval_path(&root, "catalog/product/name").unwrap(),
            vec!["Widget", "Gadget & Co"]
        );
        assert_eq!(
            eval_path(&root, "catalog/product/@sku").unwrap(),
            vec!["A1", "B2"]
        );
        assert_eq!(
            eval_path(&root, "catalog/product/tags/tag").unwrap(),
            vec!["small", "blue", "large"]
        );
        assert!(eval_path(&root, "wrong_root/x").unwrap().is_empty());
        assert!(eval_path(&root, "catalog/ghost").unwrap().is_empty());
        assert!(eval_path(&root, "catalog/@x/name").is_err());
    }

    fn store(name: &str) -> XmlStore {
        let dir = std::env::temp_dir()
            .join("sbdms-xml-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 32).unwrap();
        XmlStore::create(engine.buffer).unwrap()
    }

    #[test]
    fn store_put_get_query_remove() {
        let s = store("crud");
        s.put("catalog", CATALOG_DOC).unwrap();
        assert!(s.get("catalog").unwrap().contains("Widget"));
        assert_eq!(
            s.query("catalog", "catalog/product/@price").unwrap(),
            vec!["9.99", "19.99"]
        );
        assert_eq!(s.names(), vec!["catalog"]);
        // Replace.
        s.put("catalog", "<catalog><product sku='C3'/></catalog>").unwrap();
        assert_eq!(s.query("catalog", "catalog/product/@sku").unwrap(), vec!["C3"]);
        s.remove("catalog").unwrap();
        assert!(s.get("catalog").is_err());
        assert!(s.remove("catalog").is_err());
    }

    #[test]
    fn store_rejects_invalid_xml() {
        let s = store("invalid");
        assert!(s.put("bad", "<a><b></a>").is_err());
        assert!(s.names().is_empty());
    }

    #[test]
    fn store_reopens_from_heap() {
        let dir = std::env::temp_dir()
            .join("sbdms-xml-tests")
            .join(format!("reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 32).unwrap();
        let root = {
            let s = XmlStore::create(engine.buffer.clone()).unwrap();
            s.put("doc", "<d><x>1</x></d>").unwrap();
            engine.buffer.flush_all().unwrap();
            s.dir_page()
        };
        let s = XmlStore::open(engine.buffer, root).unwrap();
        assert_eq!(s.query("doc", "d/x").unwrap(), vec!["1"]);
    }

    #[test]
    fn service_over_bus() {
        let bus = sbdms_kernel::bus::ServiceBus::new();
        let s = store("bus");
        let id = bus.deploy(XmlService::new("xml", s).into_ref()).unwrap();
        bus.invoke(
            id,
            "put",
            Value::map().with("name", "c").with("xml", CATALOG_DOC),
        )
        .unwrap();
        let hits = bus
            .invoke(
                id,
                "query",
                Value::map().with("name", "c").with("path", "catalog/product/name"),
            )
            .unwrap();
        assert_eq!(hits.as_list().unwrap().len(), 2);
        let list = bus.invoke(id, "list", Value::map()).unwrap();
        assert_eq!(list.as_list().unwrap().len(), 1);
        bus.invoke(id, "remove", Value::map().with("name", "c")).unwrap();
        assert!(bus.invoke(id, "get", Value::map().with("name", "c")).is_err());
    }
}
