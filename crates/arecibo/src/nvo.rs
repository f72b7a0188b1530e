//! National Virtual Observatory federation: VOTable-style XML export.
//!
//! "Connecting the CTC database system with the NVO requires particular
//! XML-based protocols that have been developed by the NVO Consortium. We
//! are currently developing tools that use these protocols." This module is
//! that tool: it renders a metadata table (candidate lists, data products)
//! as a VOTable-shaped XML document — `FIELD` declarations followed by
//! `TABLEDATA` rows — and parses such documents back, so PALFA data can be
//! "federated ... with other data resources from the Astronomy community".

use sciflow_metastore::prelude::*;

/// Escape the five XML-special characters.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

fn datatype_of(ty: ValueType) -> &'static str {
    match ty {
        ValueType::Int => "long",
        ValueType::Real => "double",
        ValueType::Text => "char",
        ValueType::Blob => "unsignedByte",
        ValueType::Date => "char", // ISO date string, per VOTable convention
    }
}

/// Render `table` as a VOTable-style document.
pub fn export_votable(table: &Table, description: &str) -> String {
    let mut xml = String::new();
    xml.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    xml.push_str("<VOTABLE version=\"1.1\">\n <RESOURCE>\n");
    xml.push_str(&format!(
        "  <TABLE name=\"{}\">\n   <DESCRIPTION>{}</DESCRIPTION>\n",
        escape(table.name()),
        escape(description)
    ));
    for col in table.schema().columns() {
        xml.push_str(&format!(
            "   <FIELD name=\"{}\" datatype=\"{}\"/>\n",
            escape(&col.name),
            datatype_of(col.ty)
        ));
    }
    xml.push_str("   <DATA>\n    <TABLEDATA>\n");
    for (_, row) in table.scan() {
        xml.push_str("     <TR>");
        for v in row {
            let cell = match v {
                Value::Null => String::new(),
                Value::Int(i) => i.to_string(),
                Value::Real(r) => format!("{r:e}"),
                Value::Text(s) => escape(s),
                Value::Blob(b) => b.iter().map(|x| format!("{x:02x}")).collect(),
                Value::Date(d) => {
                    format!("{:04}-{:02}-{:02}", d / 10_000, d / 100 % 100, d % 100)
                }
            };
            xml.push_str(&format!("<TD>{cell}</TD>"));
        }
        xml.push_str("</TR>\n");
    }
    xml.push_str("    </TABLEDATA>\n   </DATA>\n  </TABLE>\n </RESOURCE>\n</VOTABLE>\n");
    xml
}

/// A parsed VOTable: field names and string-valued rows (typed re-parsing
/// is the importer's job, as in real VO tooling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoTable {
    pub table_name: String,
    pub fields: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

fn attr<'a>(tag: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("{name}=\"");
    let start = tag.find(&pat)? + pat.len();
    let end = tag[start..].find('"')? + start;
    Some(&tag[start..end])
}

/// The first `open ... close` element of `s`: its content and the text after
/// it, or `None` when `s` has no `open`. The close is searched for only
/// within `s`, so a caller that passes its enclosing element's content
/// bounds every search by that element's end.
fn element<'a>(s: &'a str, open: &str, close: &str) -> Result<Option<(&'a str, &'a str)>, String> {
    let Some(at) = s.find(open) else { return Ok(None) };
    let rest = &s[at + open.len()..];
    let end = rest.find(close).ok_or_else(|| format!("unterminated {open}"))?;
    Ok(Some((&rest[..end], &rest[end + close.len()..])))
}

/// Parse a document produced by [`export_votable`] (a deliberately small
/// subset of VOTable).
pub fn parse_votable(xml: &str) -> Result<VoTable, String> {
    let table_tag_start = xml.find("<TABLE").ok_or("missing <TABLE>")?;
    let table_tag_end =
        xml[table_tag_start..].find('>').ok_or("unterminated <TABLE>")? + table_tag_start;
    let table_tag = &xml[table_tag_start..=table_tag_end];
    let table_name = unescape(attr(table_tag, "name").ok_or("TABLE has no name")?);

    let mut fields = Vec::new();
    let mut pos = 0usize;
    while let Some(f) = xml[pos..].find("<FIELD") {
        let start = pos + f;
        let end = xml[start..].find("/>").ok_or("unterminated <FIELD>")? + start;
        let tag = &xml[start..end];
        fields.push(unescape(attr(tag, "name").ok_or("FIELD has no name")?));
        pos = end;
    }
    if fields.is_empty() {
        return Err("no FIELD declarations".into());
    }

    let mut rows = Vec::new();
    let (mut data, _) =
        element(xml, "<TABLEDATA>", "</TABLEDATA>")?.ok_or("missing <TABLEDATA>")?;
    while let Some((mut row, after_row)) = element(data, "<TR>", "</TR>")? {
        let mut cells = Vec::new();
        while let Some((cell, after_cell)) = element(row, "<TD>", "</TD>")? {
            cells.push(unescape(cell));
            row = after_cell;
        }
        if cells.len() != fields.len() {
            return Err(format!("row has {} cells for {} fields", cells.len(), fields.len()));
        }
        rows.push(cells);
        data = after_row;
    }
    Ok(VoTable { table_name, fields, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{create_candidate_table, load_candidates};
    use crate::search::Candidate;
    use crate::units::Dm;

    fn candidate_db() -> Database {
        let mut db = Database::new();
        create_candidate_table(&mut db).unwrap();
        let mut next = 0i64;
        let cands: Vec<Candidate> = (0..5)
            .map(|i| Candidate {
                dm: Dm(10.0 * i as f64),
                freq_hz: 1.0 + i as f64,
                period_s: 1.0 / (1.0 + i as f64),
                snr: 7.0 + i as f64,
                harmonics: 1,
            })
            .collect();
        load_candidates(&mut db, 3, 0, &cands, &mut next).unwrap();
        db
    }

    #[test]
    fn export_declares_fields_and_rows() {
        let db = candidate_db();
        let xml = export_votable(db.table("candidates").unwrap(), "PALFA candidates");
        assert!(xml.contains("<VOTABLE"));
        assert!(xml.contains("<FIELD name=\"dm\" datatype=\"double\"/>"));
        assert!(xml.contains("<FIELD name=\"class\" datatype=\"char\"/>"));
        assert_eq!(xml.matches("<TR>").count(), 5);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let db = candidate_db();
        let table = db.table("candidates").unwrap();
        let xml = export_votable(table, "test");
        let parsed = parse_votable(&xml).unwrap();
        assert_eq!(parsed.table_name, "candidates");
        assert_eq!(parsed.fields.len(), table.schema().arity());
        assert_eq!(parsed.rows.len(), 5);
        // Spot-check a typed value survives as its textual form.
        assert!(parsed.rows.iter().any(|r| r[0] == "0"));
    }

    #[test]
    fn special_characters_are_escaped() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ColumnDef::new("id", ValueType::Int),
            ColumnDef::new("note", ValueType::Text),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let t = db.create_table("notes", schema).unwrap();
        t.insert(vec![Value::Int(1), Value::Text("a<b & \"c\" > 'd'".into())]).unwrap();
        let xml = export_votable(t, "escaping <&> test");
        assert!(!xml.contains("a<b"), "raw angle bracket leaked");
        let parsed = parse_votable(&xml).unwrap();
        assert_eq!(parsed.rows[0][1], "a<b & \"c\" > 'd'");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_votable("<VOTABLE>").is_err());
        assert!(parse_votable("<TABLE name=\"t\"><FIELD name=\"a\"/>").is_err());
        // Wrong cell count.
        let bad = "<TABLE name=\"t\"><FIELD name=\"a\"/><FIELD name=\"b\"/>\
                   <TABLEDATA><TR><TD>1</TD></TR></TABLEDATA>";
        assert!(parse_votable(bad).is_err());
        // Closing tags out of order.
        let head = "<TABLE name=\"t\"><FIELD name=\"a\"/>";
        for body in [
            "</TABLEDATA><TABLEDATA><TR><TD>1</TD></TR>",
            "<TABLEDATA><TR><TD>1</TD></TABLEDATA></TR>",
            "<TABLEDATA><TR><TD>1</TR></TD></TABLEDATA>",
        ] {
            assert!(parse_votable(&format!("{head}{body}")).is_err(), "{body}");
        }
    }

    #[test]
    fn dates_render_iso() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ColumnDef::new("id", ValueType::Int),
            ColumnDef::new("obs", ValueType::Date),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let t = db.create_table("obs", schema).unwrap();
        t.insert(vec![Value::Int(1), Value::Date(20060704)]).unwrap();
        let xml = export_votable(t, "dates");
        assert!(xml.contains("<TD>2006-07-04</TD>"));
    }
}
