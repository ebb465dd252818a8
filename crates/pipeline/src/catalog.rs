//! The query planner's catalog: relation schemas annotated with their
//! propagated FD covers.
//!
//! A catalog is per-schema state like the covers it holds, so a
//! [`crate::CorpusBundle`] prepares one for its rules on first use
//! ([`crate::CorpusBundle::catalog`]) and every query against the bundle
//! plans against it.  The planner itself lives in `xmlprop-query`.

use crate::Error;
use std::collections::BTreeMap;
use xmlprop_reldb::{AttrSet, AttrUniverse, Fd, FdIndex, IFd, RelationSchema};

/// Relation schemas plus their propagated covers, the planner's input.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: BTreeMap<String, CatalogRelation>,
}

/// One registered relation: its schema, its cover, and the cover interned
/// for closure tests.
#[derive(Debug, Clone)]
pub struct CatalogRelation {
    schema: RelationSchema,
    cover: Vec<Fd>,
    universe: AttrUniverse,
    index: FdIndex,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a relation with its (propagated) FD cover. The cover is
    /// interned once, so key tests during planning are bitset closures.
    pub fn add_relation(&mut self, schema: RelationSchema, cover: &[Fd]) {
        let mut universe = AttrUniverse::from_names(schema.attributes().iter().map(String::as_str));
        let interned: Vec<IFd> = cover.iter().map(|fd| universe.intern_fd(fd)).collect();
        let index = FdIndex::new(universe.len(), &interned);
        self.relations.insert(
            schema.name().to_string(),
            CatalogRelation {
                schema,
                cover: cover.to_vec(),
                universe,
                index,
            },
        );
    }

    /// The schema of one relation, if registered.
    pub fn schema(&self, name: &str) -> Option<&RelationSchema> {
        self.relations.get(name).map(|r| &r.schema)
    }

    /// One registered relation, or the shared "no rule for relation"
    /// diagnostic listing the registered ones.
    pub fn relation(&self, name: &str) -> Result<&CatalogRelation, Error> {
        self.relations.get(name).ok_or_else(|| {
            let known = self.relations.keys().cloned().collect();
            Error::unknown_relation(name, known)
        })
    }
}

impl CatalogRelation {
    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The relation's FD cover, as registered.
    pub fn cover(&self) -> &[Fd] {
        &self.cover
    }

    /// Do `attrs` form a (super)key of this relation under its cover?
    pub fn is_key(&self, attrs: &[String]) -> bool {
        let seed: AttrSet = attrs
            .iter()
            .filter_map(|a| self.universe.lookup(a))
            .collect();
        let closure = self.index.closure(&seed);
        self.schema.attributes().iter().all(|a| {
            self.universe
                .lookup(a)
                .is_some_and(|id| closure.contains(id))
        })
    }
}
