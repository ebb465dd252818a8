//! Table rules and transformations (Definition 2.2).

use crate::tree::{TableTree, VarId};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use xmlprop_reldb::RelationSchema;
use xmlprop_xmlpath::PathExpr;

/// The conventional name of the root variable.
pub const ROOT_VAR: &str = "xr";

/// A variable mapping `var := parent/path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarMapping {
    /// The variable being defined.
    pub var: String,
    /// Its parent variable (`xr` for the root).
    pub parent: String,
    /// The path followed from the parent's node to bind this variable.
    pub path: PathExpr,
}

/// A field rule `field := value(var)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldRule {
    /// The relational field being populated.
    pub field: String,
    /// The variable whose `value()` populates it.
    pub var: String,
}

/// Why a table rule is not well-formed according to Definition 2.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// A variable is defined more than once.
    DuplicateVariable(String),
    /// A mapping refers to a parent variable that is never defined (and is
    /// not the root variable).
    UnknownParent {
        /// The variable whose mapping is broken.
        var: String,
        /// The undefined parent it refers to.
        parent: String,
    },
    /// A variable is not connected to the root (cycle or dangling chain).
    NotConnectedToRoot(String),
    /// A mapping from a non-root parent uses `//`, which Definition 2.2
    /// forbids.
    NonSimplePath {
        /// The offending variable.
        var: String,
        /// The offending path.
        path: String,
    },
    /// A field rule refers to a variable that has no mapping.
    UnknownFieldVariable {
        /// The field whose rule is broken.
        field: String,
        /// The unmapped variable it refers to.
        var: String,
    },
    /// A field rule is attached to an internal variable (one that is the
    /// parent of another variable).
    FieldOnInternalVariable {
        /// The offending field.
        field: String,
        /// The internal variable it refers to.
        var: String,
    },
    /// Two field rules use the same variable (the paper requires a distinct
    /// variable per field).
    SharedFieldVariable {
        /// The variable used twice.
        var: String,
    },
    /// A field appears in more than one field rule.
    DuplicateField(String),
    /// A relation field has no field rule.
    MissingField(String),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::DuplicateVariable(v) => write!(f, "variable `{v}` is defined twice"),
            RuleError::UnknownParent { var, parent } => {
                write!(f, "variable `{var}` refers to undefined parent `{parent}`")
            }
            RuleError::NotConnectedToRoot(v) => {
                write!(f, "variable `{v}` is not connected to the root variable")
            }
            RuleError::NonSimplePath { var, path } => write!(
                f,
                "variable `{var}` uses non-simple path `{path}` from a non-root parent"
            ),
            RuleError::UnknownFieldVariable { field, var } => {
                write!(f, "field `{field}` refers to unmapped variable `{var}`")
            }
            RuleError::FieldOnInternalVariable { field, var } => write!(
                f,
                "field `{field}` is defined on internal variable `{var}` (which has children)"
            ),
            RuleError::SharedFieldVariable { var } => {
                write!(f, "variable `{var}` populates more than one field")
            }
            RuleError::DuplicateField(x) => write!(f, "field `{x}` has two field rules"),
            RuleError::MissingField(x) => write!(f, "field `{x}` has no field rule"),
        }
    }
}

impl std::error::Error for RuleError {}

/// Checks Definition 2.2 and builds the rule's table tree.  This is the
/// one place variables get their [`VarId`]s: the pass that proves every
/// variable connected to the root numbers it.
fn validate(
    schema: &RelationSchema,
    mappings: &[VarMapping],
    fields: &[FieldRule],
) -> Result<TableTree, RuleError> {
    // Distinct variables; no redefinition of the root.
    let mut defined: BTreeSet<&str> = BTreeSet::new();
    for m in mappings {
        if m.var == ROOT_VAR || !defined.insert(m.var.as_str()) {
            return Err(RuleError::DuplicateVariable(m.var.clone()));
        }
    }
    // Parents must exist.
    for m in mappings {
        if m.parent != ROOT_VAR && !defined.contains(m.parent.as_str()) {
            return Err(RuleError::UnknownParent {
                var: m.var.clone(),
                parent: m.parent.clone(),
            });
        }
    }
    // Connectivity to the root, by the topological pass that numbers the
    // variables: rounds over the declaration order, each taking the
    // variables whose parent is already numbered.  A variable no round
    // takes sits on a cycle (or below one); the first in declaration order
    // is reported.
    let mut ids: HashMap<&str, u32> = HashMap::from([(ROOT_VAR, 0)]);
    let mut names = vec![ROOT_VAR.to_string()];
    let mut parent = vec![0];
    let mut edges = vec![PathExpr::epsilon()];
    let mut remaining: Vec<&VarMapping> = mappings.iter().collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|&m| match ids.get(m.parent.as_str()) {
            Some(&p) => {
                ids.insert(m.var.as_str(), names.len() as u32);
                names.push(m.var.clone());
                parent.push(p);
                edges.push(m.path.clone());
                false
            }
            None => true,
        });
        if remaining.len() == before {
            return Err(RuleError::NotConnectedToRoot(remaining[0].var.clone()));
        }
    }
    // Simple paths except from the root variable.
    for m in mappings {
        if m.parent != ROOT_VAR && m.path.has_wildcard() {
            return Err(RuleError::NonSimplePath {
                var: m.var.clone(),
                path: m.path.to_string(),
            });
        }
    }
    // Field rules: known leaf variables, one per field, distinct vars.
    let mut internal = vec![false; names.len()];
    for &p in &parent[1..] {
        internal[p as usize] = true;
    }
    let mut seen_fields: BTreeSet<&str> = BTreeSet::new();
    let mut seen_vars = vec![false; names.len()];
    let mut field_vars = Vec::with_capacity(fields.len());
    for fr in fields {
        if !seen_fields.insert(fr.field.as_str()) {
            return Err(RuleError::DuplicateField(fr.field.clone()));
        }
        let Some(&var) = ids.get(fr.var.as_str()) else {
            return Err(RuleError::UnknownFieldVariable {
                field: fr.field.clone(),
                var: fr.var.clone(),
            });
        };
        if internal[var as usize] {
            return Err(RuleError::FieldOnInternalVariable {
                field: fr.field.clone(),
                var: fr.var.clone(),
            });
        }
        if std::mem::replace(&mut seen_vars[var as usize], true) {
            return Err(RuleError::SharedFieldVariable {
                var: fr.var.clone(),
            });
        }
        field_vars.push(VarId(var));
    }
    // Every schema attribute must be populated.
    for attr in schema.attributes() {
        if !seen_fields.contains(attr.as_str()) {
            return Err(RuleError::MissingField(attr.clone()));
        }
    }
    Ok(TableTree {
        names,
        parent,
        edges,
        field_vars,
    })
}

/// A table rule `Rule(R)` for one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRule {
    schema: RelationSchema,
    mappings: Vec<VarMapping>,
    fields: Vec<FieldRule>,
    /// Built by validation; a function of the three fields above.
    tree: TableTree,
}

impl TableRule {
    /// Creates and validates a table rule, building its table tree.
    ///
    /// `mappings` define the variables (the root variable `xr` is implicit
    /// and must not be mapped); `fields` must cover exactly the attributes of
    /// `schema`.
    pub fn new(
        schema: RelationSchema,
        mappings: Vec<VarMapping>,
        fields: Vec<FieldRule>,
    ) -> Result<Self, RuleError> {
        let tree = validate(&schema, &mappings, &fields)?;
        Ok(TableRule {
            schema,
            mappings,
            fields,
            tree,
        })
    }

    /// The relation schema this rule populates.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The variable mappings, in declaration order.
    pub fn mappings(&self) -> &[VarMapping] {
        &self.mappings
    }

    /// The field rules, in schema order.
    pub fn field_rules(&self) -> &[FieldRule] {
        &self.fields
    }

    /// The variable that populates `field` (i.e. `field := value(var)`).
    pub fn field_var(&self, field: &str) -> Option<VarId> {
        let i = self.fields.iter().position(|fr| fr.field == field)?;
        Some(self.tree.field_vars()[i])
    }

    /// The table tree of this rule (Fig. 3/4 of the paper), built once by
    /// [`TableRule::new`].
    pub fn table_tree(&self) -> &TableTree {
        &self.tree
    }

    /// Shreds a document into an instance of this rule's relation,
    /// following the paper's Section 2 semantics (one tuple per complete
    /// binding, nulls for missing branches).
    ///
    /// Prepares a [`crate::ShredPlan`] and a [`xmlprop_xmltree::DocIndex`]
    /// for this one call; repeated or large-document shredding should
    /// [`TableRule::prepare`] once and reuse the plan.
    pub fn shred(&self, doc: &xmlprop_xmltree::Document) -> xmlprop_reldb::Relation {
        let mut universe = xmlprop_xmlpath::LabelUniverse::new();
        let plan = self.prepare(&mut universe);
        let index = xmlprop_xmltree::DocIndex::build(doc, &mut universe);
        plan.shred(doc, &index)
    }

    /// Compiles this rule into a [`crate::ShredPlan`] against a shared
    /// label universe (see the plan docs for the preparation contract).
    pub fn prepare(&self, universe: &mut xmlprop_xmlpath::LabelUniverse) -> crate::ShredPlan {
        crate::ShredPlan::new(self, universe)
    }
}

impl fmt::Display for TableRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rule {} {{", self.schema)?;
        for m in &self.mappings {
            // Print `xr//book` for wildcard-initial paths, `xa/@isbn` for
            // simple ones and plain `y` for the (identity) empty path.
            let path = m.path.to_string();
            if m.path.is_epsilon() {
                writeln!(f, "    {} := {};", m.var, m.parent)?;
            } else if path.starts_with("//") {
                writeln!(f, "    {} := {}{};", m.var, m.parent, path)?;
            } else {
                writeln!(f, "    {} := {}/{};", m.var, m.parent, path)?;
            }
        }
        for fr in &self.fields {
            writeln!(f, "    {} := value({});", fr.field, fr.var)?;
        }
        write!(f, "}}")
    }
}

/// A transformation: one table rule per relation of the target schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Transformation {
    rules: Vec<TableRule>,
}

impl Transformation {
    /// Creates a transformation from rules.
    pub fn new(rules: Vec<TableRule>) -> Self {
        Transformation { rules }
    }

    /// Parses a transformation from the textual syntax (see
    /// [`parse_single_rule`](crate::parse_single_rule) for the grammar).
    pub fn parse(text: &str) -> Result<Self, crate::ParseRuleError> {
        crate::parse::parse_transformation(text)
    }

    /// The table rules.
    pub fn rules(&self) -> &[TableRule] {
        &self.rules
    }

    /// Looks a rule up by relation name.
    pub fn rule(&self, relation: &str) -> Option<&TableRule> {
        self.rules.iter().find(|r| r.schema().name() == relation)
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, rule: TableRule) {
        self.rules.push(rule);
    }

    /// The number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the transformation has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The total size of the transformation (variables plus path atoms plus
    /// fields over all rules) — the measure `|σ|` of the complexity
    /// statements.
    pub fn size(&self) -> usize {
        self.rules
            .iter()
            .map(|r| {
                r.mappings().iter().map(|m| 1 + m.path.len()).sum::<usize>() + r.field_rules().len()
            })
            .sum()
    }

    /// Shreds a document into a database with one instance per rule.
    ///
    /// Prepares a [`crate::TransformationPlan`] and a
    /// [`xmlprop_xmltree::DocIndex`] for this one call; see
    /// [`Transformation::prepare`] to reuse them.
    pub fn shred(&self, doc: &xmlprop_xmltree::Document) -> xmlprop_reldb::Database {
        let mut universe = xmlprop_xmlpath::LabelUniverse::new();
        let plan = self.prepare(&mut universe);
        let index = xmlprop_xmltree::DocIndex::build(doc, &mut universe);
        plan.shred_all(doc, &index)
    }

    /// Compiles every rule into a [`crate::TransformationPlan`] against a
    /// shared label universe.
    pub fn prepare(
        &self,
        universe: &mut xmlprop_xmlpath::LabelUniverse,
    ) -> crate::TransformationPlan {
        crate::TransformationPlan::new(self, universe)
    }
}

impl fmt::Display for Transformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl TableRule {
    /// The mapping defining `var`, if it is not the root.
    pub(crate) fn mapping_of(&self, var: &str) -> Option<&VarMapping> {
        self.mappings.iter().find(|m| m.var == var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping(var: &str, parent: &str, path: &str) -> VarMapping {
        VarMapping {
            var: var.into(),
            parent: parent.into(),
            path: path.parse().unwrap(),
        }
    }

    fn field(field: &str, var: &str) -> FieldRule {
        FieldRule {
            field: field.into(),
            var: var.into(),
        }
    }

    fn book_rule() -> Result<TableRule, RuleError> {
        TableRule::new(
            RelationSchema::new("book", ["isbn", "title"]),
            vec![
                mapping("xa", ROOT_VAR, "//book"),
                mapping("x1", "xa", "@isbn"),
                mapping("x2", "xa", "title"),
            ],
            vec![field("isbn", "x1"), field("title", "x2")],
        )
    }

    #[test]
    fn valid_rule_is_accepted() {
        let rule = book_rule().unwrap();
        assert_eq!(rule.schema().name(), "book");
        let tree = rule.table_tree();
        assert_eq!(rule.field_var("isbn").map(|v| tree.name(v)), Some("x1"));
        assert_eq!(rule.field_var("nope"), None);
        assert_eq!(rule.mapping_of("xa").unwrap().parent, ROOT_VAR);
        assert!(rule.mapping_of("xr").is_none());
        let display = rule.to_string();
        assert!(display.contains("xa := xr//book"), "{display}");
        assert!(display.contains("x1 := xa/@isbn"), "{display}");
        assert!(display.contains("isbn := value(x1)"), "{display}");
    }

    #[test]
    fn duplicate_variable_rejected() {
        let err = TableRule::new(
            RelationSchema::new("r", ["a"]),
            vec![mapping("x", ROOT_VAR, "a"), mapping("x", ROOT_VAR, "b")],
            vec![field("a", "x")],
        )
        .unwrap_err();
        assert_eq!(err, RuleError::DuplicateVariable("x".into()));
    }

    #[test]
    fn unknown_parent_rejected() {
        let err = TableRule::new(
            RelationSchema::new("r", ["a"]),
            vec![mapping("x", "ghost", "a")],
            vec![field("a", "x")],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::UnknownParent { .. }));
    }

    #[test]
    fn cycle_is_not_connected_to_the_root() {
        // `z` and `y` hang off a two-variable cycle; `z` is the first of
        // the unconnected variables in declaration order.
        let err = TableRule::new(
            RelationSchema::new("r", ["a"]),
            vec![
                mapping("x", ROOT_VAR, "//x"),
                mapping("z", "y", "c"),
                mapping("y", "w", "b"),
                mapping("w", "y", "a"),
            ],
            vec![field("a", "x")],
        )
        .unwrap_err();
        assert_eq!(err, RuleError::NotConnectedToRoot("z".into()));
        assert!(err.to_string().contains("not connected"));
    }

    #[test]
    fn non_simple_path_from_non_root_rejected() {
        let err = TableRule::new(
            RelationSchema::new("r", ["a"]),
            vec![mapping("y", ROOT_VAR, "//x"), mapping("x", "y", "//deep")],
            vec![field("a", "x")],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::NonSimplePath { .. }));
    }

    #[test]
    fn field_on_internal_variable_rejected() {
        let err = TableRule::new(
            RelationSchema::new("r", ["a"]),
            vec![mapping("y", ROOT_VAR, "//x"), mapping("x", "y", "child")],
            vec![field("a", "y")],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::FieldOnInternalVariable { .. }));
    }

    #[test]
    fn missing_and_duplicate_fields_rejected() {
        let err = TableRule::new(
            RelationSchema::new("r", ["a", "b"]),
            vec![mapping("x", ROOT_VAR, "//x"), mapping("y", ROOT_VAR, "//y")],
            vec![field("a", "x")],
        )
        .unwrap_err();
        assert_eq!(err, RuleError::MissingField("b".into()));

        let err = TableRule::new(
            RelationSchema::new("r", ["a"]),
            vec![mapping("x", ROOT_VAR, "//x"), mapping("y", ROOT_VAR, "//y")],
            vec![field("a", "x"), field("a", "y")],
        )
        .unwrap_err();
        assert_eq!(err, RuleError::DuplicateField("a".into()));
    }

    #[test]
    fn shared_field_variable_rejected() {
        let err = TableRule::new(
            RelationSchema::new("r", ["a", "b"]),
            vec![mapping("x", ROOT_VAR, "//x")],
            vec![field("a", "x"), field("b", "x")],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::SharedFieldVariable { .. }));
    }

    #[test]
    fn unknown_field_variable_rejected() {
        let err = TableRule::new(
            RelationSchema::new("r", ["a"]),
            vec![mapping("x", ROOT_VAR, "//x")],
            vec![field("a", "nope")],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::UnknownFieldVariable { .. }));
    }

    #[test]
    fn transformation_accessors() {
        let rule = book_rule().unwrap();
        let mut t = Transformation::new(vec![rule.clone()]);
        assert_eq!(t.len(), 1);
        assert!(t.rule("book").is_some());
        assert!(t.rule("missing").is_none());
        assert!(t.size() > 0);
        t.add_rule(rule);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn error_messages_are_informative() {
        let err = RuleError::NonSimplePath {
            var: "z".into(),
            path: "//a".into(),
        };
        assert!(err.to_string().contains("non-simple path"));
        let err = RuleError::MissingField("f".into());
        assert!(err.to_string().contains("no field rule"));
    }
}
