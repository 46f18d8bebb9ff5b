#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/table.hpp"

namespace siren::db {

/// A named collection of tables with directory-based persistence — the
/// embedded stand-in for the paper's SQLite file.
///
/// Persistence format: one `<table>.tsv` per table; the first line holds
/// `name:TYPE` column declarations, subsequent lines hold escaped cells.
/// Human-diffable on purpose: experiment outputs can be inspected and
/// compared with standard tools.
class Database {
public:
    /// Create a table; throws if the name exists.
    Table& create_table(const std::string& name, std::vector<Column> columns);

    /// Lookup; throws siren::util::Error when absent.
    Table& table(const std::string& name);
    const Table& table(const std::string& name) const;

    bool has_table(const std::string& name) const;
    std::vector<std::string> table_names() const;

    /// Write every table into `directory` (created if needed); throws
    /// util::SystemError when a table file cannot be fully written.
    void save(const std::string& directory) const;

    /// Load every `*.tsv` in `directory` into a fresh database.
    static Database load(const std::string& directory);

private:
    std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace siren::db
